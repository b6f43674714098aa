// Crash-restart chaos: the durability analogue of the panic-free episodes
// in chaos.go. An episode drives a journaled event stream, "kills" the
// process at a configured point (the journal is abandoned without Close,
// optionally with torn garbage appended, exactly what a mid-write crash
// leaves), restarts from disk via server.Rebuild, and asserts the replayed
// manager is bit-identical to the never-crashed reference — same alive set,
// same per-link reservations, same level histogram, same counters. The
// episode then keeps driving BOTH managers through the remaining events to
// prove the restored one is fully functional, not just statically equal.
package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// CrashConfig seeds one crash-restart episode. Zero values select the same
// defaults as Config; Dir must name an empty (or absent) directory.
type CrashConfig struct {
	Seed     uint64
	Events   int
	Nodes    int
	TopoSeed uint64
	Manager  manager.Config
	Spec     qos.ElasticSpec

	// Dir is the journal data directory (required; the episode owns it).
	Dir string
	// CrashAfter is how many events run before the crash (default
	// Events/2; the rest run after the restart against both managers).
	CrashAfter int
	// SnapshotEvery is the journal snapshot cadence in journaled events
	// (default 16; negative disables snapshots so replay covers the full
	// log).
	SnapshotEvery int
	// TornTailBytes, when positive, appends that much partial-frame garbage
	// to the active segment after the crash — the torn record a mid-write
	// power cut leaves. Recovery must discard it silently.
	TornTailBytes int
	// FsyncEvery is the journal fsync policy (default -1: a process crash
	// keeps the page cache, and episodes should not grind the disk).
	FsyncEvery int
	// GroupCommit opens the journal in group-commit mode and makes the
	// crash land inside the commit window: after the acknowledged prefix, a
	// burst of UnackedWindow appends is framed into the active segment but
	// the "power dies" before the batch fsync completes — the segment is
	// truncated back to its pre-burst size. Recovery must see exactly the
	// acknowledged prefix; the unacknowledged burst is legitimately lost.
	GroupCommit bool
	// UnackedWindow is the number of in-flight, never-acknowledged appends
	// lost in the crash when GroupCommit is set (default 6).
	UnackedWindow int
}

// CrashResult summarizes a clean episode.
type CrashResult struct {
	// Generated counts events drawn; Journaled counts those that passed
	// pre-validation and were written to the log.
	Generated, Journaled int
	// SnapshotSeq is the newest durable snapshot at restart (0 = replay
	// covered the whole log).
	SnapshotSeq uint64
	// TornBytes is what recovery discarded from the tail.
	TornBytes int64
	// UnackedLost counts group-commit-window appends that were framed but
	// never acknowledged and so legitimately vanished in the crash.
	UnackedLost int
	// Fingerprint is the common state digest of reference and restored
	// managers at the end of the episode.
	Fingerprint string
}

// journalable converts ev to its journal record and runs the admission
// server's own pre-journal validation against m: no-op
// terminates/faults/repairs are skipped (the server answers 404/409 without
// touching the journal), so every journaled record is strictly replayable.
func journalable(m *manager.Manager, ev Event, spec qos.ElasticSpec) (journal.Event, bool) {
	var jev journal.Event
	switch ev.Kind {
	case KindEstablish:
		jev = server.EstablishEvent(topology.NodeID(ev.Src), topology.NodeID(ev.Dst), spec)
	case KindTerminate:
		jev = journal.Event{Kind: journal.KindTerminate, Conn: ev.Conn}
	case KindFailLink:
		jev = journal.Event{Kind: journal.KindFailLink, Link: int32(ev.Link)}
	case KindRepairLink:
		jev = journal.Event{Kind: journal.KindRepairLink, Link: int32(ev.Link)}
	default:
		return journal.Event{}, false
	}
	return jev, server.Validate(m, nil, jev) == nil
}

// snapshotNow mirrors the server's snapshot write: exported state body plus
// the aggregate cross-check header.
func snapshotNow(jnl *journal.Journal, m *manager.Manager) error {
	st := m.ExportState()
	hdr := journal.SnapshotHeader{
		Alive:          m.AliveCount(),
		Unprotected:    m.UnprotectedCount(),
		LevelHistogram: m.LevelHistogram(nil),
		Requests:       m.Requests(),
		Rejects:        m.Rejects(),
	}
	for _, l := range st.FailedLinks {
		hdr.FailedLinks = append(hdr.FailedLinks, int(l))
	}
	return jnl.WriteSnapshot(hdr, st.MarshalBinary())
}

// activeSegment resolves the newest wal segment (zero-padded names sort
// lexically) and its current size.
func activeSegment(dir string) (string, int64, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		return "", 0, fmt.Errorf("chaos: no active wal segment (%v)", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		return "", 0, err
	}
	return last, fi.Size(), nil
}

// tearTail appends a partial frame to the newest wal segment: a plausible
// length prefix whose payload never finished writing.
func tearTail(dir string, n int) error {
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("chaos: no wal segment to tear (%v)", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	garbage := make([]byte, n)
	// Declared length far beyond what follows: the classic torn record.
	garbage[0] = 0xff
	for i := 1; i < n; i++ {
		garbage[i] = byte(i * 37)
	}
	_, err = f.Write(garbage)
	return err
}

// RunCrashRestart executes one seeded crash-restart episode. A nil error
// means the restored manager matched the reference exactly and both
// finished the episode audit-clean.
func RunCrashRestart(cfg CrashConfig) (*CrashResult, error) {
	base := Config{
		Seed: cfg.Seed, Events: cfg.Events, Nodes: cfg.Nodes,
		TopoSeed: cfg.TopoSeed, Manager: cfg.Manager, Spec: cfg.Spec,
	}.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("chaos: CrashConfig.Dir is required")
	}
	if cfg.CrashAfter <= 0 || cfg.CrashAfter > base.Events {
		cfg.CrashAfter = base.Events / 2
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 16
	}
	if cfg.FsyncEvery == 0 {
		cfg.FsyncEvery = -1
	}
	if cfg.GroupCommit && cfg.UnackedWindow <= 0 {
		cfg.UnackedWindow = 6
	}

	ref, err := newRunner(base)
	if err != nil {
		return nil, err
	}
	jnl, rec0, err := journal.Open(cfg.Dir, journal.Options{
		FsyncEvery:         cfg.FsyncEvery,
		GroupCommit:        cfg.GroupCommit,
		GroupCommitMaxWait: 500 * time.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	if rec0.LastSeq != 0 {
		jnl.Close()
		return nil, fmt.Errorf("chaos: data dir %s not empty (seq %d)", cfg.Dir, rec0.LastSeq)
	}

	res := &CrashResult{}
	src := rng.New(base.Seed)
	sinceSnap := 0
	for i := 0; i < cfg.CrashAfter; i++ {
		ev := ref.nextEvent(src)
		res.Generated++
		jev, ok := journalable(ref.m, ev, base.Spec)
		if !ok {
			continue
		}
		if _, err := jnl.Append(jev); err != nil {
			jnl.Close()
			return nil, err
		}
		res.Journaled++
		if err := ref.step(ev); err != nil {
			jnl.Close()
			return nil, fmt.Errorf("chaos: pre-crash event %d (%s): %w", i, ev, err)
		}
		sinceSnap++
		if cfg.SnapshotEvery > 0 && sinceSnap >= cfg.SnapshotEvery {
			if err := snapshotNow(jnl, ref.m); err != nil {
				jnl.Close()
				return nil, err
			}
			sinceSnap = 0
		}
	}

	// Crash: abandon the journal without Close (the OS page cache keeps the
	// un-synced writes, exactly like kill -9), optionally tear the tail.
	if cfg.GroupCommit {
		// Land the crash inside the group-commit window. Every pre-crash
		// Append above was acknowledged (Append waits for the batch fsync),
		// so the acknowledged prefix ends exactly at LastSeq here. Then a
		// burst of establishes is framed into the active segment with
		// AppendAsync — no caller ever waited for durability — and the power
		// dies before the committer's fsync: Abandon stops the committer
		// without syncing and the segment is truncated back to its pre-burst
		// size, losing the batch deterministically whatever the background
		// committer managed first. The burst comes from a separate rng stream
		// so the acknowledged prefix is identical with or without the window,
		// and it is never applied to the reference manager.
		ackedSeq := jnl.LastSeq()
		if ackedSeq != uint64(res.Journaled) {
			jnl.Abandon()
			return nil, fmt.Errorf("chaos: acked seq %d, journaled %d events", ackedSeq, res.Journaled)
		}
		segPath, ackedSize, err := activeSegment(cfg.Dir)
		if err != nil {
			jnl.Abandon()
			return nil, err
		}
		nodes := ref.m.Graph().NumNodes()
		wsrc := rng.New(base.Seed ^ 0x9e3779b97f4a7c15)
		for i := 0; i < cfg.UnackedWindow; i++ {
			a := wsrc.Intn(nodes)
			b := wsrc.Intn(nodes - 1)
			if b >= a {
				b++
			}
			jev := server.EstablishEvent(topology.NodeID(a), topology.NodeID(b), base.Spec)
			if _, err := jnl.AppendAsync(jev); err != nil {
				jnl.Abandon()
				return nil, fmt.Errorf("chaos: unacked window append: %w", err)
			}
			res.UnackedLost++
		}
		if err := jnl.Abandon(); err != nil {
			return nil, fmt.Errorf("chaos: abandon journal: %w", err)
		}
		if err := os.Truncate(segPath, ackedSize); err != nil {
			return nil, fmt.Errorf("chaos: lose unsynced batch: %w", err)
		}
	}
	if cfg.TornTailBytes > 0 {
		if err := tearTail(cfg.Dir, cfg.TornTailBytes); err != nil {
			return nil, err
		}
	}

	// Restart from disk.
	jnl2, rec, err := journal.Open(cfg.Dir, journal.Options{FsyncEvery: cfg.FsyncEvery})
	if err != nil {
		return nil, fmt.Errorf("chaos: reopen after crash: %w", err)
	}
	defer jnl2.Close()
	res.SnapshotSeq = rec.SnapshotSeq
	res.TornBytes = rec.TornBytes
	if cfg.TornTailBytes > 0 && rec.TornBytes == 0 {
		return nil, errors.New("chaos: torn tail was injected but not detected")
	}
	if rec.LastSeq != uint64(res.Journaled) {
		return nil, fmt.Errorf("chaos: recovered seq %d, journaled %d events", rec.LastSeq, res.Journaled)
	}
	restored, err := server.Rebuild(ref.m.Graph(), ref.m.Config(), rec)
	if err != nil {
		return nil, fmt.Errorf("chaos: rebuild after crash: %w", err)
	}
	if err := CompareManagers(ref.m, restored); err != nil {
		return nil, fmt.Errorf("chaos: restored state diverges from never-crashed reference: %w", err)
	}

	// Post-restart: the same remaining events drive both managers; they
	// must stay in lockstep. Pre-validation consults the reference, but the
	// managers are identical so validity agrees.
	rest := &runner{cfg: base, m: restored}
	for i := cfg.CrashAfter; i < base.Events; i++ {
		ev := ref.nextEvent(src)
		res.Generated++
		if _, ok := journalable(ref.m, ev, base.Spec); !ok {
			continue
		}
		if err := ref.step(ev); err != nil {
			return nil, fmt.Errorf("chaos: post-crash event %d (%s) on reference: %w", i, ev, err)
		}
		if err := rest.step(ev); err != nil {
			return nil, fmt.Errorf("chaos: post-crash event %d (%s) on restored: %w", i, ev, err)
		}
	}
	if err := CompareManagers(ref.m, restored); err != nil {
		return nil, fmt.Errorf("chaos: managers diverged after post-crash events: %w", err)
	}
	res.Fingerprint = ref.m.ExportState().Fingerprint()
	return res, nil
}

// CompareManagers checks two managers for observable state equality:
// population and counters, per-connection levels and routes, per-directed-
// link ledger aggregates, and finally the canonical state fingerprint. The
// first difference is reported with enough context to debug it.
func CompareManagers(want, got *manager.Manager) error {
	if w, g := want.AliveCount(), got.AliveCount(); w != g {
		return fmt.Errorf("alive count %d, want %d", g, w)
	}
	if want.Requests() != got.Requests() || want.Rejects() != got.Rejects() {
		return fmt.Errorf("counters %d/%d, want %d/%d",
			got.Requests(), got.Rejects(), want.Requests(), want.Rejects())
	}
	wh, gh := want.LevelHistogram(nil), got.LevelHistogram(nil)
	if len(wh) != len(gh) {
		return fmt.Errorf("level histogram %v, want %v", gh, wh)
	}
	for i := range wh {
		if wh[i] != gh[i] {
			return fmt.Errorf("level histogram %v, want %v", gh, wh)
		}
	}
	wantIDs, gotIDs := want.AliveIDs(), got.AliveIDs()
	for i, id := range wantIDs {
		if gotIDs[i] != id {
			return fmt.Errorf("alive[%d] = %d, want %d", i, gotIDs[i], id)
		}
		wc, gc := want.Conn(id), got.Conn(id)
		if wc.Level != gc.Level {
			return fmt.Errorf("conn %d level %d, want %d", id, gc.Level, wc.Level)
		}
		if wc.State() != gc.State() {
			return fmt.Errorf("conn %d state %v, want %v", id, gc.State(), wc.State())
		}
		if !wc.Primary.Equal(gc.Primary) {
			return fmt.Errorf("conn %d primary %v, want %v", id, gc.Primary, wc.Primary)
		}
		if wc.HasBackup != gc.HasBackup {
			return fmt.Errorf("conn %d HasBackup %v, want %v", id, gc.HasBackup, wc.HasBackup)
		}
		if wc.HasBackup && !wc.Backup.Equal(gc.Backup) {
			return fmt.Errorf("conn %d backup %v, want %v", id, gc.Backup, wc.Backup)
		}
	}
	g := want.Graph()
	for d := 0; d < g.NumDirLinks(); d++ {
		dd := topology.DirLinkID(d)
		if w, got2 := want.Network().GrantSum(dd), got.Network().GrantSum(dd); w != got2 {
			return fmt.Errorf("dir link %d grant sum %v, want %v", d, got2, w)
		}
		if w, got2 := want.Network().MinSum(dd), got.Network().MinSum(dd); w != got2 {
			return fmt.Errorf("dir link %d min sum %v, want %v", d, got2, w)
		}
		if w, got2 := want.Network().Spare(dd), got.Network().Spare(dd); w != got2 {
			return fmt.Errorf("dir link %d spare %v, want %v", d, got2, w)
		}
	}
	for l := 0; l < g.NumLinks(); l++ {
		ll := topology.LinkID(l)
		if w, got2 := want.Network().Failed(ll), got.Network().Failed(ll); w != got2 {
			return fmt.Errorf("link %d failed=%v, want %v", l, got2, w)
		}
	}
	if w, got2 := want.ExportState().Fingerprint(), got.ExportState().Fingerprint(); w != got2 {
		return fmt.Errorf("state fingerprint %s, want %s", got2, w)
	}
	return nil
}
