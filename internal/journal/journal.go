// Package journal makes the admission server's state machine durable: a
// write-ahead event log plus periodic snapshots, replayed on startup to
// rebuild the exact pre-crash manager state.
//
// Layout of a data directory:
//
//	wal-00000000000000000001.log   length-prefixed, CRC-32C-checked event
//	wal-00000000000000000391.log   records; the filename is the sequence
//	                               number of the first record the segment
//	                               may contain
//	snap-00000000000000000390.snap one JSON header line + a binary state
//	                               body, written atomically (tmp + fsync +
//	                               rename); the name is the last sequence
//	                               number the snapshot covers
//
// Every mutation is appended — with its full seed-derived inputs and a
// monotonic sequence number — BEFORE the manager mutates, so a crash at any
// instant loses at most the response, never the decision. Recovery loads
// the newest snapshot, replays the records after it, and discards a torn
// tail (a partial final record from a mid-write crash) detected via CRC. A
// damaged record that valid records FOLLOW is not a torn tail: it is
// corruption in the middle of the log, and Open refuses with an error
// rather than silently dropping acknowledged events.
//
// The fsync policy is one of two (Options.FsyncEvery): 1 (the default,
// also what 0 selects) syncs every append and is durable against power
// loss, and a negative value never syncs (still durable against process
// crashes — the page cache survives kill -9 — but not power loss). Open
// refuses any other positive value: a sync every N records would
// acknowledge records that are not yet durable. Snapshot writes always
// fsync before the rename, and old segments are deleted only after the
// snapshot is durable.
//
// A segment's space is allocated before records land in it, a chunk at a
// time (segmentChunk), and every segment sync is an fdatasync: a record's
// sync then writes its data and flushes, and commits no file-size change.
// The active segment therefore ends in zeros no record has reached yet.
// Recovery reads such a zero tail, in any segment, as the preallocated
// space it is, never as a torn tail. Close and rotation trim a segment to
// its records; Open trims the active one and allocates again.
package journal

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCorrupt reports unrecoverable journal damage: a bad record with valid
// records after it, a gap in the sequence numbering, or a snapshot whose
// body fails its checksum. A torn tail is NOT corruption — it is discarded
// silently (reported via Recovered.TornBytes).
var ErrCorrupt = errors.New("journal: corrupt")

// Options tunes a Journal.
type Options struct {
	// FsyncEvery controls whether Append calls fsync: 1 (the default)
	// syncs every record, negative never. Zero selects the default; Open
	// refuses anything above 1. Ignored with GroupCommit, which always
	// provides FsyncEvery:1 durability.
	FsyncEvery int
	// GroupCommit batches fsyncs across concurrent appenders: AppendAsync
	// writes the frame and returns, WaitDurable parks on a commit ticket,
	// and a committer goroutine fsyncs once per batch (see groupcommit.go).
	// The durability contract is identical to FsyncEvery:1 — no record is
	// reported durable before an fsync covering it returned — but N
	// concurrent appends cost one fsync instead of N.
	GroupCommit bool
	// GroupCommitMaxWait caps how long the committer lets a forming batch
	// accumulate before fsyncing it (default 2ms; negative disables the
	// accumulation window — each committer round syncs immediately). It
	// bounds the extra latency group commit may add to a single append.
	GroupCommitMaxWait time.Duration
}

// Recovered is what Open found on disk: the newest snapshot (if any) and
// the contiguous event tail after it. Feed it to the state rebuilder
// (server.Rebuild) to reconstruct the manager.
type Recovered struct {
	// SnapshotSeq is the sequence number the snapshot covers (0 = none).
	SnapshotSeq uint64
	// SnapshotHeader is the parsed JSON header of the snapshot, nil if none.
	SnapshotHeader *SnapshotHeader
	// SnapshotBody is the snapshot's opaque binary state body.
	SnapshotBody []byte
	// Events are the journal records with Seq > SnapshotSeq, contiguous and
	// ascending.
	Events []Event
	// LastSeq is the sequence number of the last durable record
	// (SnapshotSeq when Events is empty).
	LastSeq uint64
	// TornBytes counts bytes of torn tail discarded from the last segment.
	TornBytes int64
	// Term is the highest replication term found on disk — the max of the
	// snapshot header's term and every KindTerm record after it. Zero on a
	// journal that never participated in a failover.
	Term uint64
}

// String names the event the way a log line or a failing trace refers to it.
func (ev Event) String() string {
	switch ev.Kind {
	case KindEstablish:
		return fmt.Sprintf("establish %d->%d", ev.Src, ev.Dst)
	case KindTerminate:
		return fmt.Sprintf("terminate conn %d", ev.Conn)
	case KindFailLink, KindRepairLink:
		return fmt.Sprintf("%s %d", ev.Kind, ev.Link)
	default:
		return ev.Kind.String()
	}
}

// Journal is an append-only event log over one data directory. Safe for
// use by one process at a time; methods are internally serialized.
type Journal struct {
	dir string
	opt Options

	mu       sync.Mutex
	f        *os.File // active segment
	off      int64    // its logical end: where the next frame is written
	size     int64    // its allocated end (with prealloc)
	prealloc bool     // false once the filesystem refused fallocate
	seq      uint64   // last appended (or recovered) sequence number
	snapSeq  uint64   // sequence covered by the newest snapshot
	buf      []byte
	tail     tailRing // most recent frames, served to tail reads (stream.go)

	diskWalks atomic.Int64 // reads that fell through the ring to the files

	// gc is the group-commit ledger (groupcommit.go), always allocated; the
	// committer goroutine runs only when opt.GroupCommit is set.
	gc *groupState
}

// Open scans dir (creating it if needed), verifies every record, discards a
// torn tail, and opens the last segment for appending. The returned
// Recovered holds everything needed to rebuild state; it is independent of
// the Journal and stays valid after Close.
func Open(dir string, opt Options) (*Journal, *Recovered, error) {
	if opt.FsyncEvery == 0 {
		opt.FsyncEvery = 1
	}
	if opt.FsyncEvery > 1 {
		return nil, nil, fmt.Errorf("journal: FsyncEvery %d: a record is synced when it is appended (1) or never (negative)", opt.FsyncEvery)
	}
	if opt.GroupCommit && opt.GroupCommitMaxWait == 0 {
		opt.GroupCommitMaxWait = 2 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	// Leftover temp files are snapshots that never got renamed: dead.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, t := range tmps {
		_ = os.Remove(t)
	}
	rec, lastSeg, lastEnd, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{dir: dir, opt: opt, seq: rec.LastSeq, snapSeq: rec.SnapshotSeq, prealloc: true}
	if lastSeg == "" {
		if err := j.startSegment(j.seq + 1); err != nil {
			return nil, nil, err
		}
	} else {
		f, err := os.OpenFile(lastSeg, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		// Appends resume right after the last valid record. Whatever follows
		// it — a torn frame, the previous run's zero tail — goes, and a fresh
		// chunk of zeros takes its place.
		j.f, j.off, j.size = f, lastEnd, lastEnd
		if err := f.Truncate(lastEnd); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: trimming the last segment: %w", err)
		}
		if err := j.reserve(segmentChunk); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	j.gc = newGroupState(j.seq)
	if opt.GroupCommit {
		j.gc.started = true
		go j.committer()
	}
	return j, rec, nil
}

// Read scans dir as Open does — newest snapshot, verified record tail, torn
// bytes counted — without opening it for appending: nothing is created,
// truncated or removed, so it is safe on a directory another process owns.
func Read(dir string) (*Recovered, error) {
	rec, _, _, err := scanDir(dir)
	return rec, err
}

// Reload rescans the directory read-only and returns a fresh Recovered. It
// is how degraded-mode recovery rebuilds state while the Journal stays
// open; no truncation or other mutation happens. Appends must be quiescent
// (they are: a degraded server refuses every mutation).
func (j *Journal) Reload() (*Recovered, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// The caller is about to trust the files over everything in memory.
	j.tail.reset()
	rec, _, _, err := scanDir(j.dir)
	return rec, err
}

// LastSeq returns the sequence number of the most recent record.
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// SnapshotSeq returns the sequence number covered by the newest snapshot.
func (j *Journal) SnapshotSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapSeq
}

// Append assigns the next sequence number to ev, writes the framed record,
// and applies the fsync policy; in group-commit mode it additionally waits
// for the record's batch to become durable, so a successful return carries
// the same guarantee in every mode. It returns the assigned sequence
// number. The caller must append BEFORE mutating state (write-ahead
// discipline). Callers that can overlap other work with the fsync should
// use AppendAsync + WaitDurable instead.
func (j *Journal) Append(ev Event) (uint64, error) {
	seq, err := j.AppendAsync(ev)
	if err != nil {
		return 0, err
	}
	if err := j.WaitDurable(context.Background(), seq); err != nil {
		return 0, err
	}
	return seq, nil
}

// Close syncs, trims and closes the active segment. The directory stays
// valid for a later Open.
func (j *Journal) Close() error {
	j.stopCommitter(nil)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.closeSegment()
	gc := j.gc
	gc.mu.Lock()
	gc.closed = true
	gc.durable.Broadcast()
	gc.mu.Unlock()
	return err
}

// segmentChunk is how much space a segment allocates at a time: when it is
// created or reopened, and whenever the next frame would not fit. It holds
// about 1 100 establish frames.
const segmentChunk = 64 << 10

// fallocate is allocateSpace; a test swaps it to play a filesystem that
// cannot preallocate.
var fallocate = allocateSpace

// reserve makes room for n more bytes at the active segment's logical end,
// growing it by whole chunks. The next sync makes the growth durable with
// the records written into it. A filesystem that refuses fallocate turns
// preallocation off for good: the segment then grows by the writes
// themselves. Caller holds j.mu.
func (j *Journal) reserve(n int64) error {
	if !j.prealloc || j.off+n <= j.size {
		return nil
	}
	grow := int64(segmentChunk)
	for j.size+grow < j.off+n {
		grow += segmentChunk
	}
	switch err := fallocate(j.f, j.size, grow); {
	case err == nil:
		j.size += grow
	case errors.Is(err, errors.ErrUnsupported):
		j.prealloc = false
	default:
		return fmt.Errorf("journal: allocating segment space: %w", err)
	}
	return nil
}

// closeSegment syncs the active segment, trims it to its records and closes
// it. The trim needs no sync of its own: if a crash beats it to the disk,
// recovery reads the zero tail it left as the preallocated space it is.
// Caller holds j.mu.
func (j *Journal) closeSegment() error {
	err := datasync(j.f)
	if err == nil {
		j.markSyncedLocked()
	}
	if terr := j.f.Truncate(j.off); err == nil {
		err = terr
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// startSegment creates wal-<firstSeq>.log, allocates its first chunk and
// makes it the active segment, closing the previous one. Caller holds j.mu
// (or the Journal is not yet shared).
func (j *Journal) startSegment(firstSeq uint64) error {
	path := filepath.Join(j.dir, segmentName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.f != nil {
		// WriteSnapshot's pre-sync already made every record in it durable
		// and the snapshot supersedes them: closing it is best-effort.
		_ = j.closeSegment()
	}
	j.f, j.off, j.size = f, 0, 0
	if err := j.reserve(segmentChunk); err != nil {
		return err
	}
	return syncDir(j.dir)
}

func segmentName(firstSeq uint64) string { return fmt.Sprintf("wal-%020d.log", firstSeq) }
func snapshotName(seq uint64) string     { return fmt.Sprintf("snap-%020d.snap", seq) }
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	return d.Sync()
}

// scanDir reads everything in dir: the newest snapshot plus every event
// after it. It returns the path of the last segment (for appending; ""
// when none exists) and the offset just past its last valid record.
//
// A segment's records end at the first bytes that do not form a valid
// frame. Zeros from there to the end of the file are preallocated space,
// in any segment. Anything else is damage: a torn tail in the last segment
// when no valid frame follows it, corruption otherwise.
func scanDir(dir string) (rec *Recovered, lastSeg string, lastEnd int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", 0, fmt.Errorf("journal: %w", err)
	}
	var snapSeqs []uint64
	type seg struct {
		firstSeq uint64
		path     string
	}
	var segs []seg
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if s, ok := parseSeqName(e.Name(), "snap-", ".snap"); ok {
			snapSeqs = append(snapSeqs, s)
		}
		if s, ok := parseSeqName(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, seg{firstSeq: s, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(snapSeqs, func(i, k int) bool { return snapSeqs[i] < snapSeqs[k] })
	sort.Slice(segs, func(i, k int) bool { return segs[i].firstSeq < segs[k].firstSeq })

	rec = &Recovered{}
	if len(snapSeqs) > 0 {
		s := snapSeqs[len(snapSeqs)-1]
		hdr, body, err := loadSnapshot(filepath.Join(dir, snapshotName(s)))
		if err != nil {
			return nil, "", 0, err
		}
		rec.SnapshotSeq, rec.SnapshotHeader, rec.SnapshotBody = s, hdr, body
		rec.Term = hdr.Term
	}
	rec.LastSeq = rec.SnapshotSeq

	next := rec.SnapshotSeq + 1 // the sequence number we expect next
	for si, sg := range segs {
		data, err := os.ReadFile(sg.path)
		if err != nil {
			return nil, "", 0, fmt.Errorf("journal: %w", err)
		}
		last := si == len(segs)-1
		off := 0
		for off < len(data) {
			ev, nextOff, ok, reason := frameAt(data, off)
			if !ok {
				// Trailing zeros are space no record reached.
				damaged := len(bytes.TrimRight(data[off:], "\x00"))
				if damaged == 0 {
					break
				}
				if !last {
					return nil, "", 0, fmt.Errorf("%w: %s at offset %d: %s (followed by segment %s — not a torn tail)",
						ErrCorrupt, filepath.Base(sg.path), off, reason, filepath.Base(segs[si+1].path))
				}
				// Damage in the last segment is a torn tail only if nothing
				// valid follows it; a valid record there means acknowledged
				// data follows the damage — real corruption.
				if validFrameAfter(data, off) {
					return nil, "", 0, fmt.Errorf("%w: %s at offset %d: %s, but valid records follow — corruption in the middle of the log, refusing to guess; restore from a backup or remove the damaged segment by hand",
						ErrCorrupt, filepath.Base(sg.path), off, reason)
				}
				rec.TornBytes = int64(damaged)
				break
			}
			// Records at or below the snapshot are superseded (a crash
			// between snapshot fsync and segment deletion leaves them).
			if ev.Seq <= rec.SnapshotSeq {
				off = nextOff
				continue
			}
			if ev.Seq != next {
				return nil, "", 0, fmt.Errorf("%w: %s holds seq %d where %d was expected (gap or duplicate)",
					ErrCorrupt, filepath.Base(sg.path), ev.Seq, next)
			}
			rec.Events = append(rec.Events, ev)
			rec.LastSeq = ev.Seq
			if ev.Kind == KindTerm && ev.Term > rec.Term {
				rec.Term = ev.Term
			}
			next = ev.Seq + 1
			off = nextOff
		}
		if last {
			lastSeg, lastEnd = sg.path, int64(off)
		}
	}
	return rec, lastSeg, lastEnd, nil
}

// validFrameAfter reports whether a valid frame starts anywhere past off.
// Only frames with a plausible length are checksummed, so a scan over zeros
// or garbage costs a few loads per byte.
func validFrameAfter(data []byte, off int) bool {
	for p := off + 1; p+frameHeaderSize < len(data); p++ {
		ln := int(binary.LittleEndian.Uint32(data[p:]))
		if ln == 0 || ln > maxRecord || p+frameHeaderSize+ln > len(data) {
			continue
		}
		if _, _, ok, _ := frameAt(data, p); ok {
			return true
		}
	}
	return false
}

// RecordsEnd returns the offset just past the valid records segment file
// path starts with: where the next record goes, and all a closed segment
// holds. What follows is preallocated space or a torn tail.
func RecordsEnd(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	off := 0
	for {
		_, next, ok, _ := frameAt(data, off)
		if !ok {
			return int64(off), nil
		}
		off = next
	}
}

// WriteSnapshot durably records the state covering every event up to
// LastSeq: it writes the snapshot atomically (tmp + fsync + rename + dir
// sync), rotates to a fresh segment, and only then deletes the segments and
// snapshots the new snapshot supersedes. hdr's Seq/BodyLen/BodyCRC32C are
// filled in here; callers populate the state-describing fields.
func (j *Journal) WriteSnapshot(hdr SnapshotHeader, body []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	// Nothing journaled since the last snapshot (or ever, for a fresh
	// journal): the existing snapshot already covers the tip, and rotating
	// again would collide with the active wal-<seq+1> segment.
	if j.seq == j.snapSeq {
		return nil
	}
	// The active segment must be durable before the snapshot supersedes it:
	// if the snapshot fsyncs but a preceding record did not, a crash window
	// could lose an event the snapshot claims to cover.
	if err := datasync(j.f); err != nil {
		return fmt.Errorf("journal: snapshot pre-sync: %w", err)
	}
	// The pre-sync made every written record durable: release parked
	// group-commit tickets now, before the rotation closes this segment
	// under the committer.
	j.markSyncedLocked()
	seq := j.seq
	if err := writeSnapshotFile(j.dir, seq, hdr, body); err != nil {
		return err
	}
	if err := j.startSegment(seq + 1); err != nil {
		return err
	}
	j.snapSeq = seq
	// Cleanup is best-effort: a crash here just leaves superseded files
	// that the next Open skips.
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil
	}
	for _, e := range entries {
		if s, ok := parseSeqName(e.Name(), "wal-", ".log"); ok && s <= seq {
			_ = os.Remove(filepath.Join(j.dir, e.Name()))
		}
		if s, ok := parseSeqName(e.Name(), "snap-", ".snap"); ok && s < seq {
			_ = os.Remove(filepath.Join(j.dir, e.Name()))
		}
	}
	return nil
}

// SnapshotHeader is the JSON first line of a snapshot file. Alongside the
// framing fields it mirrors the aggregate shapes of the server's /v1/stats
// snapshot (internal/server/snapshot.go), so operators can inspect a
// snapshot with head -1 | jq, and so the restore path can cross-check the
// rebuilt manager against what the snapshot claims — a disagreement means
// the replay machinery itself is broken, and startup refuses to serve.
type SnapshotHeader struct {
	Format     string `json:"format"`
	Version    int    `json:"version"`
	Seq        uint64 `json:"seq"`
	BodyLen    int64  `json:"body_len"`
	BodyCRC32C uint32 `json:"body_crc32c"`

	// Aggregate cross-check fields (same shapes as server Stats).
	Alive          int   `json:"alive"`
	Unprotected    int   `json:"unprotected"`
	LevelHistogram []int `json:"level_histogram"`
	Requests       int64 `json:"requests"`
	Rejects        int64 `json:"rejects"`
	FailedLinks    []int `json:"failed_links,omitempty"`

	// Term is the replication term in force when the snapshot was taken, so
	// compaction never erases the fencing a KindTerm record established.
	Term uint64 `json:"term,omitempty"`

	// Cross-shard coordinator counters (attempted / committed / aborted
	// two-phase establishes), stamped by the coordinator's snapshot-annotate
	// hook so the telemetry survives restarts. Zero on single-plane
	// journals. They are aggregates of the whole coordinator, not the one
	// shard; boot takes the max across shard snapshots.
	CrossAttempts  int64 `json:"cross_attempts,omitempty"`
	CrossCommitted int64 `json:"cross_committed,omitempty"`
	CrossAborted   int64 `json:"cross_aborted,omitempty"`

	// Txns carries committed cross-shard transactions with a pinned
	// connection alive inside the snapshot body, so replay can rebuild the
	// shard's transaction table without the (now truncated) prepare and
	// commit records. Snapshots are never taken while a transaction is
	// still pending, so only committed entries appear here; absent on
	// single-shard journals (bit-identical to the pre-shard format).
	Txns []TxnSnapshot `json:"txns,omitempty"`
	// TxnHigh is the largest transaction ID the shard had seen, so the
	// coordinator never reissues the ID of a transaction that has left
	// every table. Absent on single-shard journals.
	TxnHigh uint64 `json:"txn_high,omitempty"`
}

// TxnSnapshot is one committed cross-shard transaction in a snapshot
// header: its ID, the participating-shard bitmask from the prepare record,
// and the shard-local connection IDs it pinned.
type TxnSnapshot struct {
	Txn   uint64  `json:"txn"`
	Peers uint32  `json:"peers"`
	Conns []int64 `json:"conns"`
}

const (
	snapshotFormat  = "drqos-journal-snapshot"
	snapshotVersion = 1
)
