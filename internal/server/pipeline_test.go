package server_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// rigid is the spec a cross-shard prepare pins: Min == Max.
var rigid = qos.ElasticSpec{Min: 100, Max: 100, Increment: 100, Utility: 1}

// pipelineFixture is a server state in which each of the seven originating
// mutations has a valid target, so whatever refuses one is the guard under
// test and not validation: an alive connection to terminate, a healthy link
// to fail and a failed one to repair, a path to prepare on, and two pending
// transactions — one to commit, one to abort.
type pipelineFixture struct {
	srv               *server.Server
	conn              channel.ConnID
	healthy, failed   topology.LinkID
	path              routing.Path
	pathSrc, pathDst  topology.NodeID
	toCommit, toAbort uint64
	prepareTxn        uint64
	mutations         []pipelineMutation
}

type pipelineMutation struct {
	name string
	call func(ctx context.Context) error
}

func buildPipelineFixture(t *testing.T, s *server.Server) *pipelineFixture {
	t.Helper()
	ctx := context.Background()
	f := &pipelineFixture{srv: s, toCommit: 1, toAbort: 2, prepareTxn: 3}
	a, err := s.Establish(ctx, 0, 5, qos.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	f.conn = a.Conn.ID
	// A second connection only lends its route to the prepares.
	b, err := s.Establish(ctx, 7, 20, qos.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	f.path, f.pathSrc, f.pathDst = routing.Path{Nodes: slices.Clone(b.Conn.Primary.Nodes), Links: slices.Clone(b.Conn.Primary.Links)}, 7, 20
	onPath := map[topology.LinkID]bool{}
	for _, l := range append(append([]topology.LinkID{}, a.Conn.Primary.Links...), f.path.Links...) {
		onPath[l] = true
	}
	// Fail and repair targets stay off both routes, so neither drops a
	// connection the other mutations need.
	var free []topology.LinkID
	for l := 0; l < s.StatsView().Links && len(free) < 2; l++ {
		if !onPath[topology.LinkID(l)] {
			free = append(free, topology.LinkID(l))
		}
	}
	if len(free) < 2 {
		t.Fatal("topology has no two links off the fixture's routes")
	}
	f.healthy, f.failed = free[0], free[1]
	if _, err := s.FailLink(ctx, f.failed); err != nil {
		t.Fatal(err)
	}
	for _, txn := range []uint64{f.toCommit, f.toAbort} {
		if _, err := s.PrepareTxn(ctx, txn, 3, f.pathSrc, f.pathDst, rigid, f.path); err != nil {
			t.Fatal(err)
		}
	}
	f.mutations = []pipelineMutation{
		{"establish", func(ctx context.Context) error {
			_, err := s.Establish(ctx, 0, 5, qos.DefaultSpec())
			return err
		}},
		{"terminate", func(ctx context.Context) error { _, err := s.Terminate(ctx, f.conn); return err }},
		{"fail-link", func(ctx context.Context) error { _, err := s.FailLink(ctx, f.healthy); return err }},
		{"repair-link", func(ctx context.Context) error { _, err := s.RepairLink(ctx, f.failed); return err }},
		{"prepare", func(ctx context.Context) error {
			_, err := s.PrepareTxn(ctx, f.prepareTxn, 3, f.pathSrc, f.pathDst, rigid, f.path)
			return err
		}},
		{"commit", func(ctx context.Context) error { return s.CommitTxn(ctx, f.toCommit) }},
		{"abort", func(ctx context.Context) error { return s.AbortTxn(ctx, f.toAbort) }},
	}
	return f
}

// observed is everything a refused mutation must leave untouched.
type observed struct {
	fingerprint string
	txns        []server.TxnInfo
	journalSeq  uint64
}

func (f *pipelineFixture) observe(t *testing.T, jnl *journal.Journal) observed {
	t.Helper()
	ctx := context.Background()
	fp, err := f.srv.StateFingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	txns, err := f.srv.Txns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	o := observed{fingerprint: fp, txns: txns}
	if jnl != nil {
		o.journalSeq = jnl.LastSeq()
	}
	return o
}

// TestMutationGuardMatrix runs every originating mutation against every
// refusal the pipeline owns. Whatever the method, the answer is the same
// error, nothing reaches the journal, and state and transaction table stay
// put.
func TestMutationGuardMatrix(t *testing.T) {
	g := journaledGraph(t)
	refusals := []struct {
		name string
		want error
		// arm puts the server into the refusing condition.
		arm func(t *testing.T, s *server.Server, jnl *journal.Journal)
	}{
		{"degraded", server.ErrDegraded, func(t *testing.T, s *server.Server, _ *journal.Journal) {
			if err := s.CorruptForTesting(context.Background()); !errors.As(err, new(*manager.InvariantViolation)) {
				t.Fatalf("corrupt: %v", err)
			}
		}},
		{"follower", server.ErrNotPrimary, func(t *testing.T, s *server.Server, _ *journal.Journal) {
			if err := s.Demote(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
		}},
		{"journal-append-fails", server.ErrJournal, func(t *testing.T, _ *server.Server, jnl *journal.Journal) {
			if err := jnl.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, r := range refusals {
		t.Run(r.name, func(t *testing.T) {
			s, jnl := newJournaledServer(t, g, server.Options{SnapshotEvery: -1})
			defer s.Shutdown(context.Background())
			f := buildPipelineFixture(t, s)
			r.arm(t, s, jnl)
			before := f.observe(t, jnl)
			for _, m := range f.mutations {
				if err := m.call(context.Background()); !errors.Is(err, r.want) {
					t.Errorf("%s: %v, want %v", m.name, err, r.want)
				}
			}
			if after := f.observe(t, jnl); !reflect.DeepEqual(before, after) {
				t.Errorf("refused mutations left a trace:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}

	// A caller that gives up while its command is queued: the loop sheds the
	// command unexecuted and unjournaled.
	t.Run("expired-in-queue", func(t *testing.T) {
		s, jnl := newJournaledServer(t, g, server.Options{SnapshotEvery: -1})
		defer s.Shutdown(context.Background())
		f := buildPipelineFixture(t, s)
		before := f.observe(t, jnl)
		for _, m := range f.mutations {
			wedged, release := make(chan struct{}), make(chan struct{})
			if err := s.Submit(context.Background(), func(*manager.Manager) { close(wedged); <-release }); err != nil {
				t.Fatal(err)
			}
			<-wedged
			// An abandoned consuming-lane command from the last round may
			// still sit behind this (freeing-lane) wedge.
			base := s.QueueDepth()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- m.call(ctx) }()
			for deadline := time.Now().Add(5 * time.Second); s.QueueDepth() <= base; {
				if time.Now().After(deadline) {
					t.Fatalf("%s never queued behind the wedge", m.name)
				}
				time.Sleep(time.Millisecond)
			}
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Errorf("%s: %v, want context.Canceled", m.name, err)
			}
			close(release)
		}
		if after := f.observe(t, jnl); !reflect.DeepEqual(before, after) {
			t.Errorf("abandoned mutations left a trace:\nbefore %+v\nafter  %+v", before, after)
		}
		// A command is shed when the loop reaches it; a no-op queued behind
		// the abandoned consuming ones says the loop has.
		reached := make(chan struct{})
		if err := s.SubmitConsuming(context.Background(), func(*manager.Manager) { close(reached) }); err != nil {
			t.Fatal(err)
		}
		<-reached
		if expired, canceled := s.Sheds(); expired+canceled != int64(len(f.mutations)) {
			t.Errorf("sheds = %d+%d, want %d", expired, canceled, len(f.mutations))
		}
	})

	// The acknowledgment comes strictly after the record is locally durable
	// and after the replication hook — which itself only runs on a durable
	// record — has returned.
	t.Run("ack-after-durable-and-replicated", func(t *testing.T) {
		jnl, _, err := journal.Open(t.TempDir(), journal.Options{
			FsyncEvery: 1, GroupCommit: true, GroupCommitMaxWait: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer jnl.Close()
		var hookCalls, hookReturned atomic.Int64
		var armed atomic.Bool
		s, err := server.New(g, manager.Config{Capacity: 10000}, server.Options{
			Journal: jnl, SnapshotEvery: -1,
			WaitReplicated: func(_ context.Context, seq uint64) error {
				if !armed.Load() {
					return nil
				}
				hookCalls.Add(1)
				if synced := jnl.SyncedSeq(); synced < seq {
					t.Errorf("replication hook ran for seq %d with only %d durable", seq, synced)
				}
				time.Sleep(5 * time.Millisecond)
				hookReturned.Add(1)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(context.Background())
		f := buildPipelineFixture(t, s)
		armed.Store(true)
		for i, m := range f.mutations {
			tip := jnl.LastSeq()
			if err := m.call(context.Background()); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if jnl.LastSeq() <= tip {
				t.Errorf("%s was acknowledged without a journal record", m.name)
			}
			if jnl.SyncedSeq() < jnl.LastSeq() {
				t.Errorf("%s acknowledged at seq %d, durable only to %d", m.name, jnl.LastSeq(), jnl.SyncedSeq())
			}
			if hookCalls.Load() != int64(i+1) || hookReturned.Load() != int64(i+1) {
				t.Errorf("%s acknowledged with the replication hook at %d calls / %d returns, want %d",
					m.name, hookCalls.Load(), hookReturned.Load(), i+1)
			}
		}
	})
}

// TestLiveReplayFollowerAgree drives all seven mutation kinds through a
// journaled primary — including an aborted transaction and one whose pin a
// link failure took — and requires the three ways state is derived from the
// event stream to agree on manager fingerprint and transaction table: the
// live primary, a rebuild from its reopened journal, and a follower fed the
// same records.
func TestLiveReplayFollowerAgree(t *testing.T) {
	g := journaledGraph(t)
	ctx := context.Background()
	dir := t.TempDir()
	jnl, _, err := journal.Open(dir, journal.Options{FsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	mcfg := manager.Config{Capacity: 10000}
	// The primary keeps its whole log (no snapshot cadence) so the test can
	// read the stream back; one explicit snapshot near the end makes the
	// replay cross a snapshot boundary all the same.
	primary, err := server.New(g, mcfg, server.Options{Journal: jnl, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	establishN(t, primary, 6)
	f := buildPipelineFixture(t, primary)
	for _, m := range f.mutations {
		if err := m.call(ctx); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
	}
	// A third pending transaction loses its only pin to a link failure: no
	// abort ever arrives, yet it must not stay pending anywhere.
	if _, err := primary.FailLink(ctx, f.path.Links[0]); err != nil {
		t.Fatal(err)
	}
	if err := primary.CommitTxn(ctx, f.prepareTxn); !errors.Is(err, server.ErrNotFound) {
		t.Errorf("commit of a transaction whose pin a link failure took: %v, want ErrNotFound", err)
	}
	stream := readEvents(t, jnl, 1)
	if err := primary.SnapshotNow(ctx); err != nil {
		t.Fatal(err)
	}
	establishN(t, primary, 3)
	tail := readEvents(t, jnl, jnl.SnapshotSeq()+1)
	stream = append(stream, tail...)
	if tip := jnl.LastSeq(); uint64(len(stream)) != tip {
		t.Fatalf("stream holds %d records, journal tip %d", len(stream), tip)
	}

	liveFP, err := primary.StateFingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	liveTxns, err := primary.Txns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(liveTxns) != 1 || liveTxns[0].Txn != f.toCommit || !liveTxns[0].Committed {
		t.Fatalf("live table = %+v, want only committed txn %d", liveTxns, f.toCommit)
	}
	if err := primary.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	t.Run("replay", func(t *testing.T) {
		jnl2, rec, err := journal.Open(dir, journal.Options{FsyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer jnl2.Close()
		if rec.SnapshotSeq == 0 || len(rec.Events) == 0 {
			t.Errorf("replay restores snapshot %d plus %d events, want both", rec.SnapshotSeq, len(rec.Events))
		}
		m, txns, err := server.Rebuild(g, mcfg, rec)
		if err != nil {
			t.Fatal(err)
		}
		if fp := m.ExportState().Fingerprint(); fp != liveFP {
			t.Errorf("replayed fingerprint %s, live %s", fp, liveFP)
		}
		if got := txns.Infos(m); !reflect.DeepEqual(got, liveTxns) {
			t.Errorf("replayed table %+v, live %+v", got, liveTxns)
		}
	})

	t.Run("follower", func(t *testing.T) {
		fjnl, _, err := journal.Open(t.TempDir(), journal.Options{FsyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer fjnl.Close()
		follower, err := server.New(g, mcfg, server.Options{Journal: fjnl, SnapshotEvery: 4, Follower: true})
		if err != nil {
			t.Fatal(err)
		}
		defer follower.Shutdown(ctx)
		// Small batches, like a live stream: snapshots interleave with the
		// transactions' lifetimes.
		for i := 0; i < len(stream); i += 3 {
			if _, err := follower.ApplyReplicated(ctx, stream[i:min(i+3, len(stream))], nil); err != nil {
				t.Fatalf("apply batch at %d: %v", i, err)
			}
		}
		fp, err := follower.StateFingerprint(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fp != liveFP {
			t.Errorf("follower fingerprint %s, live %s", fp, liveFP)
		}
		got, err := follower.Txns(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, liveTxns) {
			t.Errorf("follower table %+v, live %+v", got, liveTxns)
		}
		// An aborted transaction left pending would block every later
		// snapshot; the follower must have kept its cadence to the end.
		if behind := fjnl.LastSeq() - fjnl.SnapshotSeq(); behind >= 4+3 {
			t.Errorf("follower's last snapshot is %d records behind its tip (cadence 4): snapshots are blocked", behind)
		}
	})
}
