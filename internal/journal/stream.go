// Streaming read access for replication: a primary serves its journal to
// warm standbys record-by-record (ReadFrames — out of the in-memory tail
// ring when the standby is near the tip, off the segment files when it is
// catching up), bootstraps a far-behind or brand-new standby from the
// newest snapshot (LatestSnapshot / InstallSnapshot on the receiving
// side), and the standby appends what it received under the primary's own
// sequence numbers (AppendReplicated in groupcommit.go). Reads are safe
// concurrently with appends: a record's frame is fully written to the
// segment before its sequence number becomes visible, and no read goes
// past the durable tip, so a reader can never observe a half-written frame
// below the range it returns.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// ErrCompacted reports that the requested sequence range has been folded
// into a snapshot and is no longer held individually, neither in the
// segment files nor in the tail ring. The caller should bootstrap from
// LatestSnapshot instead.
var ErrCompacted = errors.New("journal: requested records compacted into a snapshot")

// DurableSeq returns the highest sequence number a reader may rely on —
// SyncedSeq under the name the read side knows it by.
func (j *Journal) DurableSeq() uint64 { return j.SyncedSeq() }

// tailRingSize is how many of the most recent frames stay in memory. A
// standby in steady state streams from one or two records behind the tip,
// also across a snapshot that just folded them into its image, and a
// stream batch is at most a few hundred records, so 256 slots (~16 KB of
// 57-byte establish frames) serve every steady-state read; anything older
// is a catch-up read and takes the disk walk.
const tailRingSize = 256

// tailRing holds the encoded frames of the records [low, high], the most
// recently appended ones, slot seq%tailRingSize each. It is a cache of the
// segment files' tail and nothing else: dropped whenever the files change
// other than by an append (InstallSnapshot, Reload) and empty after Open.
// Guarded by j.mu.
type tailRing struct {
	low, high uint64 // high == 0: empty (sequence numbers start at 1)
	frames    [tailRingSize][]byte
}

// push records the frame of the record just appended. Slot buffers are
// reused, so a warm ring costs one copy per append and no allocation.
func (t *tailRing) push(seq uint64, frame []byte) {
	if t.high == 0 || seq != t.high+1 {
		t.low = seq
	}
	t.high = seq
	if t.high-t.low >= tailRingSize {
		t.low = t.high - tailRingSize + 1
	}
	slot := &t.frames[seq%tailRingSize]
	*slot = append((*slot)[:0], frame...)
}

func (t *tailRing) reset() { t.low, t.high = 0, 0 }

// concat returns the frames of [from, last] back to back, or false when
// the ring does not hold from (it always holds everything after it).
func (t *tailRing) concat(from, last uint64) ([]byte, bool) {
	if t.high == 0 || from < t.low || last > t.high {
		return nil, false
	}
	size := 0
	for s := from; s <= last; s++ {
		size += len(t.frames[s%tailRingSize])
	}
	buf := make([]byte, 0, size)
	for s := from; s <= last; s++ {
		buf = append(buf, t.frames[s%tailRingSize]...)
	}
	return buf, true
}

// ReadFrames returns up to max records with Seq >= from, ascending and
// contiguous, bounded by the durable tip, in the on-disk frame format (the
// stream's wire format — see DecodeFrames), and how many there are. Zero
// records means the caller is at the tip (a stream parks on
// WaitDurable(from)). ErrCompacted means the records from names are no
// longer held anywhere: at or below the newest snapshot and out of the
// tail ring — bootstrap from the snapshot. Safe concurrently with appends
// and snapshots.
//
// Reads near the tip are served from the tail ring without touching the
// file system, also when a snapshot has just folded them into its image; a
// from older than the ring walks the segment files.
func (j *Journal) ReadFrames(from uint64, max int) (frames []byte, n int, err error) {
	if from == 0 {
		from = 1
	}
	if max <= 0 {
		max = 1024
	}
	j.mu.Lock()
	durable := j.SyncedSeq()
	if from > durable {
		j.mu.Unlock()
		return nil, 0, nil
	}
	last := min(durable, from+uint64(max)-1)
	frames, ok := j.tail.concat(from, last)
	compacted := from <= j.snapSeq
	j.mu.Unlock()
	switch {
	case ok:
		return frames, int(last - from + 1), nil
	case compacted:
		return nil, 0, ErrCompacted
	}
	return j.walkFrames(from, max, durable)
}

// FrameCRC returns the stored CRC-32C of the durable record seq — EventCRC
// of that record, without decoding it. ok is false when seq lies past the
// durable tip; ErrCompacted when it is no longer held (ReadFrames).
func (j *Journal) FrameCRC(seq uint64) (crc uint32, ok bool, err error) {
	frame, n, err := j.ReadFrames(seq, 1)
	if err != nil || n == 0 {
		return 0, false, err
	}
	return binary.LittleEndian.Uint32(frame[4:]), true, nil
}

// DiskWalksForTesting counts the reads that fell through the tail ring to
// the segment files — the catch-up path. A standby streaming at the tip
// never moves it; the stream tests hold that.
func (j *Journal) DiskWalksForTesting() int64 { return j.diskWalks.Load() }

// walkFrames is the catch-up read: list the directory, read every segment
// that can hold [from, durable] whole, and collect the frames in range.
func (j *Journal) walkFrames(from uint64, max int, durable uint64) (frames []byte, n int, err error) {
	j.diskWalks.Add(1)
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	type seg struct {
		firstSeq uint64
		path     string
	}
	var segs []seg
	for _, e := range entries {
		if s, ok := parseSeqName(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, seg{firstSeq: s, path: filepath.Join(j.dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].firstSeq < segs[k].firstSeq })

	next := from
	for si, sg := range segs {
		// A segment can only hold seqs in [its name, the next segment's name).
		if si+1 < len(segs) && segs[si+1].firstSeq <= next {
			continue
		}
		if sg.firstSeq > durable {
			break
		}
		data, err := os.ReadFile(sg.path)
		if err != nil {
			if os.IsNotExist(err) {
				// A concurrent snapshot deleted it under us; the records it
				// held are covered by that snapshot now.
				return nil, 0, ErrCompacted
			}
			return nil, 0, fmt.Errorf("journal: %w", err)
		}
		off := 0
		for off < len(data) {
			ev, nextOff, ok, _ := frameAt(data, off)
			if !ok {
				// The segment's records end here: preallocated zeros follow,
				// or, in the active segment, the in-flight tail past the
				// durable bound. The next segment, if any, goes on.
				break
			}
			frame := data[off:nextOff]
			off = nextOff
			if ev.Seq < next {
				continue // superseded duplicate or below the requested range
			}
			if ev.Seq > durable {
				return frames, n, nil
			}
			if ev.Seq != next {
				return nil, 0, fmt.Errorf("%w: %s holds seq %d where %d was expected", ErrCorrupt, filepath.Base(sg.path), ev.Seq, next)
			}
			frames = append(frames, frame...)
			next++
			if n++; n >= max {
				return frames, n, nil
			}
		}
	}
	return frames, n, nil
}

// LatestSnapshot loads the newest snapshot on disk, or (nil, nil, nil)
// when none exists. The header still carries its framing fields
// (Seq/BodyLen/BodyCRC32C), so the pair can be fed to InstallSnapshot on
// another journal as-is.
func (j *Journal) LatestSnapshot() (*SnapshotHeader, []byte, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	best := uint64(0)
	found := false
	for _, e := range entries {
		if s, ok := parseSeqName(e.Name(), "snap-", ".snap"); ok && (!found || s > best) {
			best, found = s, true
		}
	}
	if !found {
		return nil, nil, nil
	}
	return loadSnapshot(filepath.Join(j.dir, snapshotName(best)))
}

// InstallSnapshot replaces the journal's entire contents with a snapshot
// shipped from a primary: every existing segment and snapshot is deleted
// (including any divergent suffix a fenced ex-primary may hold), the
// snapshot is written durably, and a fresh segment starts at hdr.Seq+1.
// The caller must be quiescent — no concurrent appends; a WaitDurable
// parked past the installed seq is woken and refused. A crash mid-install
// leaves either the old journal with a truncated tail or the new snapshot
// alone; both recover cleanly and re-sync from the primary.
func (j *Journal) InstallSnapshot(hdr SnapshotHeader, body []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if hdr.Seq == 0 {
		return errors.New("journal: snapshot with seq 0")
	}
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	// Close the active segment before deleting history so the fresh segment
	// below is the only open file.
	_ = j.f.Close()
	j.f = nil
	for _, e := range entries {
		_, isSeg := parseSeqName(e.Name(), "wal-", ".log")
		_, isSnap := parseSeqName(e.Name(), "snap-", ".snap")
		if isSeg || isSnap {
			if err := os.Remove(filepath.Join(j.dir, e.Name())); err != nil {
				return fmt.Errorf("journal: clearing for snapshot install: %w", err)
			}
		}
	}
	if err := writeSnapshotFile(j.dir, hdr.Seq, hdr, body); err != nil {
		return err
	}
	if err := j.startSegment(hdr.Seq + 1); err != nil {
		return err
	}
	j.seq, j.snapSeq = hdr.Seq, hdr.Seq
	j.tail.reset()
	gc := j.gc
	gc.mu.Lock()
	gc.writeSeq, gc.syncedSeq = hdr.Seq, hdr.Seq
	gc.installs++
	gc.durable.Broadcast()
	gc.mu.Unlock()
	return nil
}

// EventCRC returns the CRC-32C of ev's canonical payload encoding — the
// same checksum the on-disk frame stores. Replication uses it as a cheap
// history-identity probe: a standby reports the CRC of its last record and
// the primary compares it against its own record at that seq; a mismatch
// means the histories diverged and the standby must re-bootstrap.
func EventCRC(ev Event) uint32 {
	return crc32.Checksum(appendEvent(nil, ev), castagnoli)
}

// EncodeFramesForTesting renders events in the on-disk frame format (u32
// length, u32 CRC-32C, payload) — the wire format of the replication
// stream. The shipper sends the journal's stored frames as they are; this
// encoder is the codec leg FuzzApply and FuzzDecodeFrames hold DecodeFrames
// against.
func EncodeFramesForTesting(evs []Event) []byte {
	var buf []byte
	for _, ev := range evs {
		buf = appendFrame(buf, appendEvent(nil, ev))
	}
	return buf
}

// DecodeFrames parses a buffer of on-disk frames. Unlike boot recovery there
// is no torn-tail tolerance: the transport delivered the buffer whole, so
// any damage is an error.
func DecodeFrames(data []byte) ([]Event, error) {
	var out []Event
	off := 0
	for off < len(data) {
		ev, next, ok, reason := frameAt(data, off)
		if !ok {
			return nil, fmt.Errorf("%w: stream frame at offset %d: %s", ErrCorrupt, off, reason)
		}
		out = append(out, ev)
		off = next
	}
	return out, nil
}
