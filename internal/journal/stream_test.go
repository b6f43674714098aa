package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// ReadFrom is ReadFrames decoded.
func (j *Journal) ReadFrom(from uint64, max int) ([]Event, error) {
	frames, _, err := j.ReadFrames(from, max)
	if err != nil || len(frames) == 0 {
		return nil, err
	}
	return DecodeFrames(frames)
}

// TestReadFromBasic: the stream reader serves exactly the requested range,
// reports the tip with an empty slice, and honors the max bound.
func TestReadFromBasic(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	defer j.Close()
	mustAppend(t, j, testEvents(10)...)

	got, err := j.ReadFrom(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Seq != 4 || got[2].Seq != 6 {
		t.Fatalf("ReadFrom(4,3) = %+v", got)
	}
	if got, err := j.ReadFrom(11, 100); err != nil || len(got) != 0 {
		t.Fatalf("read past tip: %v events, err %v", len(got), err)
	}
	if got, err := j.ReadFrom(0, 100); err != nil || len(got) != 10 {
		t.Fatalf("read from 0: %v events, err %v", len(got), err)
	}
}

// TestReadFromSpansSegmentRotation: a read range that crosses a segment
// boundary (the crash-leftover layout scanDir accepts: an old segment whose
// superseding snapshot never finished deleting it) is served contiguously.
func TestReadFromSpansSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	mustAppend(t, j, testEvents(3)...)
	j.Close()

	// Hand-roll a second segment continuing the sequence, as a crash between
	// snapshot-triggered rotation steps would leave it.
	evs := testEvents(3)
	for i := range evs {
		evs[i].Seq = uint64(4 + i)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(4)), EncodeFramesForTesting(evs), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := mustOpen(t, dir)
	defer j2.Close()
	if rec.LastSeq != 6 {
		t.Fatalf("LastSeq %d, want 6", rec.LastSeq)
	}
	got, err := j2.ReadFrom(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0].Seq != 2 || got[4].Seq != 6 {
		t.Fatalf("cross-segment read = %+v", got)
	}
}

// TestReadFromCompaction: once a snapshot covers the requested range and
// the tail ring no longer holds it the reader reports ErrCompacted, and the
// snapshot + tail records it returns instead reproduce the full history.
// What the ring still holds stays readable across the snapshot: a standby
// one record behind must not be sent to a bootstrap.
func TestReadFromCompaction(t *testing.T) {
	const snapAt = tailRingSize + 6
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	defer j.Close()
	mustAppend(t, j, testEvents(snapAt)...)
	if err := j.WriteSnapshot(SnapshotHeader{Alive: 1}, []byte("state@262")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Event{Kind: KindTerminate, Conn: 42})

	if _, err := j.ReadFrom(3, 100); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read below snapshot and ring: err %v, want ErrCompacted", err)
	}
	if held, err := j.ReadFrom(snapAt, 100); err != nil || len(held) != 2 || held[0].Seq != snapAt {
		t.Fatalf("read of the snapshot's last record, still in the ring: %d records, err %v", len(held), err)
	}
	hdr, body, err := j.LatestSnapshot()
	if err != nil || hdr == nil {
		t.Fatalf("LatestSnapshot: hdr %v err %v", hdr, err)
	}
	if hdr.Seq != snapAt || string(body) != "state@262" {
		t.Fatalf("snapshot seq %d body %q", hdr.Seq, body)
	}
	tail, err := j.ReadFrom(hdr.Seq+1, 100)
	if err != nil || len(tail) != 1 || tail[0].Seq != snapAt+1 || tail[0].Conn != 42 {
		t.Fatalf("tail after snapshot: %+v, err %v", tail, err)
	}
	if _, err := j.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.ReadFrom(snapAt, 100); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read below snapshot after Reload emptied the ring: err %v, want ErrCompacted", err)
	}
}

// TestReadFromNeverServesTornTail: a torn final frame (mid-write crash) is
// invisible to the stream — a standby can only ever receive records that
// boot recovery would also keep.
func TestReadFromNeverServesTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	mustAppend(t, j, testEvents(5)...)
	j.Close()

	// A torn frame: plausible length prefix, truncated payload.
	f, err := os.OpenFile(onlySegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var torn []byte
	torn = binary.LittleEndian.AppendUint32(torn, 40)
	torn = append(torn, 0xde, 0xad, 0xbe)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, rec := mustOpen(t, dir)
	defer j2.Close()
	if rec.TornBytes == 0 {
		t.Fatal("expected a torn tail")
	}
	got, err := j2.ReadFrom(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("stream served %d records, want the 5 intact ones", len(got))
	}
}

// TestReplicatedResumeAfterRestart: a standby journal extends the
// primary's numbering via AppendReplicated, survives a restart (reopen
// reports the tip to resume from), discards its own torn tail exactly like
// boot recovery, and refuses a record that does not extend the log.
func TestReplicatedResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	evs := testEvents(5)
	for i, ev := range evs {
		ev.Seq = uint64(i + 1)
		if _, err := j.AppendReplicated(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-order and gapped replicated appends are refused.
	if _, err := j.AppendReplicated(Event{Seq: 5, Kind: KindTerminate}); err == nil {
		t.Fatal("duplicate seq accepted")
	}
	if _, err := j.AppendReplicated(Event{Seq: 9, Kind: KindTerminate}); err == nil {
		t.Fatal("gapped seq accepted")
	}
	j.Close()

	// Crash with a torn tail: reopen truncates it and the tip regresses, so
	// the standby re-requests the lost record from the primary.
	f, err := os.OpenFile(onlySegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x09, 0x00, 0x00, 0x00, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, rec := mustOpen(t, dir)
	defer j2.Close()
	if rec.LastSeq != 5 || rec.TornBytes == 0 {
		t.Fatalf("reopen: LastSeq %d torn %d, want 5 and a discarded tail", rec.LastSeq, rec.TornBytes)
	}
	if _, err := j2.AppendReplicated(Event{Seq: 6, Kind: KindTerminate, Conn: 6}); err != nil {
		t.Fatalf("resume at 6: %v", err)
	}
}

// TestInstallSnapshotReplacesDivergentHistory: bootstrapping from a shipped
// snapshot wipes whatever the journal held — including records past the
// snapshot seq that a fenced ex-primary journaled but never replicated —
// and the journal continues from the snapshot's sequence number.
func TestInstallSnapshotReplacesDivergentHistory(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	defer j.Close()
	mustAppend(t, j, testEvents(8)...) // divergent history to be discarded

	hdr := SnapshotHeader{Alive: 3, Term: 2}
	if err := j.InstallSnapshot(hdr, []byte("primary-state@5")); err == nil {
		t.Fatal("install with seq 0 must be refused")
	}
	hdr.Seq = 5
	if err := j.InstallSnapshot(hdr, []byte("primary-state@5")); err != nil {
		t.Fatal(err)
	}
	if j.LastSeq() != 5 || j.SnapshotSeq() != 5 {
		t.Fatalf("after install: last %d snap %d, want 5/5", j.LastSeq(), j.SnapshotSeq())
	}
	if _, err := j.ReadFrom(1, 10); !errors.Is(err, ErrCompacted) {
		t.Fatalf("pre-snapshot reads after install: %v, want ErrCompacted", err)
	}
	if _, err := j.AppendReplicated(Event{Seq: 6, Kind: KindFailLink, Link: 1}); err != nil {
		t.Fatal(err)
	}

	// The wipe is durable: reopening sees only the snapshot and the new tail.
	j.Close()
	j2, rec := mustOpen(t, dir)
	defer j2.Close()
	if rec.SnapshotSeq != 5 || string(rec.SnapshotBody) != "primary-state@5" ||
		len(rec.Events) != 1 || rec.Events[0].Seq != 6 || rec.Term != 2 {
		t.Fatalf("reopen after install: %+v", rec)
	}
}

// TestTermRecordsAndRecovery: KindTerm records round-trip, raise
// Recovered.Term, and survive compaction via the snapshot header.
func TestTermRecordsAndRecovery(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	mustAppend(t, j,
		Event{Kind: KindFailLink, Link: 1},
		Event{Kind: KindTerm, Term: 3},
		Event{Kind: KindRepairLink, Link: 1},
	)
	j.Close()

	j2, rec := mustOpen(t, dir)
	if rec.Term != 3 {
		t.Fatalf("recovered term %d, want 3", rec.Term)
	}
	if !reflect.DeepEqual(rec.Events[1], Event{Seq: 2, Kind: KindTerm, Term: 3}) {
		t.Fatalf("term record round-trip: %+v", rec.Events[1])
	}
	// Compaction must carry the term in the snapshot header.
	if err := j2.WriteSnapshot(SnapshotHeader{Term: 3}, []byte("s")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, rec3 := mustOpen(t, dir)
	defer j3.Close()
	if rec3.Term != 3 || len(rec3.Events) != 0 {
		t.Fatalf("term lost across compaction: term %d, %d events", rec3.Term, len(rec3.Events))
	}
}

// TestFrameWireRoundTrip: the stream wire format is the on-disk frame
// format, checksums included; damage is detected, not tolerated.
func TestFrameWireRoundTrip(t *testing.T) {
	evs := testEvents(4)
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	buf := EncodeFramesForTesting(evs)
	got, err := DecodeFrames(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("wire round-trip: got %+v want %+v", got, evs)
	}
	buf[len(buf)-1] ^= 0x40
	if _, err := DecodeFrames(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped bit: err %v, want ErrCorrupt", err)
	}
	if EventCRC(evs[0]) == EventCRC(evs[1]) {
		t.Fatal("distinct events share a CRC")
	}
}

// FuzzDecodeFrames: whatever a follower is sent, DecodeFrames either
// refuses it or returns the events whose encoding is the input byte for
// byte — nothing re-ordered, invented or dropped — and every frame it
// accepts stores the CRC that EventCRC gives its event, the identity a
// standby reports to its primary.
func FuzzDecodeFrames(f *testing.F) {
	traces := [][]Event{testEvents(1), testEvents(9), {
		{Kind: KindPrepare, Txn: 7, Peers: 0b101, Src: 1, Dst: 4, MinKbps: 100, MaxKbps: 500, IncKbps: 50, Utility: 1,
			PathNodes: []int32{1, 2, 4}, PathLinks: []int32{3, 8}},
		{Kind: KindCommit, Txn: 7},
		{Kind: KindTerm, Term: 2},
	}}
	for _, evs := range traces {
		for i := range evs {
			evs[i].Seq = uint64(i + 1)
		}
		buf := EncodeFramesForTesting(evs)
		for _, n := range []int{len(buf), len(buf) - 1, len(buf) / 2, frameHeaderSize + 3} {
			f.Add(buf[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := DecodeFrames(data)
		if err != nil {
			return
		}
		if got := EncodeFramesForTesting(evs); !bytes.Equal(got, data) {
			t.Fatalf("accepted %d bytes as %d events that encode to %d other bytes", len(data), len(evs), len(got))
		}
		off := 0
		for i, ev := range evs {
			if stored := binary.LittleEndian.Uint32(data[off+4:]); EventCRC(ev) != stored {
				t.Fatalf("event %d (%s): EventCRC %08x, frame stores %08x", i, ev.Kind, EventCRC(ev), stored)
			}
			off += frameHeaderSize + int(binary.LittleEndian.Uint32(data[off:]))
		}
	})
}
