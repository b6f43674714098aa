package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		switch i % 4 {
		case 0:
			evs[i] = Event{Kind: KindEstablish, Src: int32(i), Dst: int32(i + 1),
				MinKbps: 100, MaxKbps: 500, IncKbps: 50, Utility: 1}
		case 1:
			evs[i] = Event{Kind: KindTerminate, Conn: int64(i)}
		case 2:
			evs[i] = Event{Kind: KindFailLink, Link: int32(i)}
		default:
			evs[i] = Event{Kind: KindRepairLink, Link: int32(i)}
		}
	}
	return evs
}

func mustOpen(t *testing.T, dir string) (*Journal, *Recovered) {
	t.Helper()
	j, rec, err := Open(dir, Options{FsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

func mustAppend(t *testing.T, j *Journal, evs ...Event) {
	t.Helper()
	for _, ev := range evs {
		if _, err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// onlySegment returns the path of the single wal segment in dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("want exactly 1 segment, have %v", segs)
	}
	return segs[0]
}

func TestEmptyDirColdStart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh") // Open must create it
	j, rec := mustOpen(t, dir)
	defer j.Close()
	if rec.SnapshotSeq != 0 || rec.LastSeq != 0 || len(rec.Events) != 0 || rec.TornBytes != 0 {
		t.Fatalf("cold start recovered %+v", rec)
	}
	if seq, err := j.Append(Event{Kind: KindFailLink, Link: 3}); err != nil || seq != 1 {
		t.Fatalf("first append: seq %d, err %v", seq, err)
	}
}

// TestOpenRefusesFsyncEveryN: a sync every N records would acknowledge
// records that are not yet durable, so Open refuses it and leaves the
// directory uncreated.
func TestOpenRefusesFsyncEveryN(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh")
	if j, _, err := Open(dir, Options{FsyncEvery: 2}); err == nil {
		j.Close()
		t.Fatal("FsyncEvery 2 accepted")
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused Open touched the directory: %v", err)
	}
}

func TestRoundtripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	evs := testEvents(25)
	j, _ := mustOpen(t, dir)
	mustAppend(t, j, evs...)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec := mustOpen(t, dir)
	defer j2.Close()
	if len(rec.Events) != len(evs) {
		t.Fatalf("recovered %d events, want %d", len(rec.Events), len(evs))
	}
	for i, got := range rec.Events {
		want := evs[i]
		want.Seq = uint64(i + 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}
	if rec.LastSeq != uint64(len(evs)) {
		t.Fatalf("LastSeq %d, want %d", rec.LastSeq, len(evs))
	}
	// Appends continue the sequence after reopen.
	if seq, err := j2.Append(Event{Kind: KindTerminate, Conn: 9}); err != nil || seq != uint64(len(evs)+1) {
		t.Fatalf("append after reopen: seq %d, err %v", seq, err)
	}
}

// Test2PCRecordRoundTrip: prepare and commit records — the sharded plane's
// transaction phases — survive append/reopen with their variable-length
// path payloads intact, and a malformed prepare payload is rejected.
func Test2PCRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	evs := []Event{
		{Kind: KindPrepare, Txn: 7, Peers: 0b101, Src: 3, Dst: 9,
			MinKbps: 200, MaxKbps: 200, IncKbps: 200, Utility: 1,
			PathNodes: []int32{3, 5, 9}, PathLinks: []int32{2, 8}},
		{Kind: KindCommit, Txn: 7},
		{Kind: KindPrepare, Txn: 8, Peers: 0b11, Src: 0, Dst: 1,
			MinKbps: 100, MaxKbps: 100, IncKbps: 100, Utility: 0.5,
			PathNodes: []int32{0, 1}, PathLinks: []int32{0}},
		{Kind: KindTerminate, Conn: 1},
	}
	j, _ := mustOpen(t, dir)
	mustAppend(t, j, evs...)
	j.Close()

	j2, rec := mustOpen(t, dir)
	defer j2.Close()
	if len(rec.Events) != len(evs) {
		t.Fatalf("recovered %d events, want %d", len(rec.Events), len(evs))
	}
	for i, got := range rec.Events {
		want := evs[i]
		want.Seq = uint64(i + 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}

	// A prepare with a degenerate path must not encode/decode silently.
	if _, err := decodeEvent(appendEvent(nil, Event{Kind: KindPrepare, Txn: 1,
		PathNodes: []int32{4}, PathLinks: nil})); err == nil {
		t.Fatal("single-node prepare path decoded without error")
	}
}

func TestTornTailDiscardedAndAppendable(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	mustAppend(t, j, testEvents(10)...)
	j.Close()

	// Simulate a mid-write crash: chop the final record in half.
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := mustOpen(t, dir)
	defer j2.Close()
	if len(rec.Events) != 9 {
		t.Fatalf("recovered %d events, want clean prefix of 9", len(rec.Events))
	}
	if rec.TornBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The torn bytes are physically gone: the next append lands where the
	// torn record was and must survive the next reopen.
	if seq, err := j2.Append(Event{Kind: KindFailLink, Link: 42}); err != nil || seq != 10 {
		t.Fatalf("append after torn tail: seq %d, err %v", seq, err)
	}
	j2.Close()
	_, rec3 := mustOpen(t, dir)
	if len(rec3.Events) != 10 || rec3.Events[9].Link != 42 {
		t.Fatalf("post-torn append lost: %+v", rec3.Events)
	}
}

func TestMidJournalCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	mustAppend(t, j, testEvents(10)...)
	j.Close()

	// Flip a byte inside an early record's payload: the CRC fails but valid
	// records follow, so this is NOT a torn tail.
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderSize+3] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-journal corruption: err %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "valid records follow") {
		t.Fatalf("error does not explain the refusal: %v", err)
	}
}

func TestSnapshotBoundsReplayAndCleansSegments(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	mustAppend(t, j, testEvents(6)...)
	if err := j.WriteSnapshot(SnapshotHeader{Alive: 3}, []byte("state-at-6")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Event{Kind: KindFailLink, Link: 7}, Event{Kind: KindRepairLink, Link: 7})
	j.Close()

	j2, rec := mustOpen(t, dir)
	defer j2.Close()
	if rec.SnapshotSeq != 6 || string(rec.SnapshotBody) != "state-at-6" {
		t.Fatalf("snapshot: seq %d body %q", rec.SnapshotSeq, rec.SnapshotBody)
	}
	if rec.SnapshotHeader.Alive != 3 {
		t.Fatalf("header aggregate lost: %+v", rec.SnapshotHeader)
	}
	if len(rec.Events) != 2 || rec.Events[0].Seq != 7 || rec.Events[1].Seq != 8 {
		t.Fatalf("tail after snapshot: %+v", rec.Events)
	}
	// The pre-snapshot segment was rotated out and deleted.
	if seg := onlySegment(t, dir); filepath.Base(seg) != segmentName(7) {
		t.Fatalf("active segment %s, want %s", filepath.Base(seg), segmentName(7))
	}
}

func TestCrashBetweenSnapshotAndSegmentDelete(t *testing.T) {
	// A crash after the snapshot fsyncs but before the old segment (and old
	// snapshot) are deleted leaves superseded files. Replay must use the
	// newest snapshot and skip events it covers, even though they are still
	// on disk.
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	mustAppend(t, j, testEvents(4)...)
	if err := j.WriteSnapshot(SnapshotHeader{}, []byte("state-at-4")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, testEvents(3)...)
	j.Close()

	// Reconstruct the crash window: copy the current files into a fresh dir
	// and add back a stale pre-snapshot segment and a stale older snapshot,
	// exactly what WriteSnapshot would have deleted.
	crash := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	staleDir := t.TempDir()
	js, _ := mustOpen(t, staleDir)
	mustAppend(t, js, testEvents(4)...)
	js.Close()
	stale, err := os.ReadFile(onlySegment(t, staleDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crash, segmentName(1)), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshotFile(crash, 2, SnapshotHeader{}, []byte("old")); err != nil {
		t.Fatal(err)
	}

	j2, rec := mustOpen(t, crash)
	defer j2.Close()
	if rec.SnapshotSeq != 4 || string(rec.SnapshotBody) != "state-at-4" {
		t.Fatalf("wrong snapshot won: seq %d body %q", rec.SnapshotSeq, rec.SnapshotBody)
	}
	if len(rec.Events) != 3 || rec.Events[0].Seq != 5 {
		t.Fatalf("stale segment not skipped: %+v", rec.Events)
	}
}

func TestSnapshotCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	mustAppend(t, j, testEvents(3)...)
	if err := j.WriteSnapshot(SnapshotHeader{}, []byte("precious state")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, have %v", snaps)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot body: err %v, want ErrCorrupt", err)
	}
}

// TestSnapshotWithWrittenAtLoads: a snapshot written before headers lost
// their wall-clock written_at stamp still loads, body and all.
func TestSnapshotWithWrittenAtLoads(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	mustAppend(t, j, testEvents(3)...)
	if err := j.WriteSnapshot(SnapshotHeader{Alive: 2}, []byte("precious state")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := filepath.Join(dir, snapshotName(3))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(data, []byte(`{"format"`), []byte(`{"written_at":"2026-01-02T03:04:05Z","format"`), 1)
	if bytes.Equal(old, data) {
		t.Fatalf("header %q does not open with the format", data)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq != 3 || rec.SnapshotHeader.Alive != 2 || string(rec.SnapshotBody) != "precious state" {
		t.Fatalf("snapshot at seq %d, header %+v, body %q", rec.SnapshotSeq, rec.SnapshotHeader, rec.SnapshotBody)
	}
}

func TestLeftoverTmpFilesRemoved(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, snapshotName(5)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, rec := mustOpen(t, dir)
	defer j.Close()
	if rec.LastSeq != 0 {
		t.Fatalf("tmp file influenced recovery: %+v", rec)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp file survived Open: %v", err)
	}
}

func TestReloadSeesAppends(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	defer j.Close()
	mustAppend(t, j, testEvents(5)...)
	rec, err := j.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 5 || rec.LastSeq != 5 {
		t.Fatalf("reload: %d events, LastSeq %d", len(rec.Events), rec.LastSeq)
	}
}

// TestWriteSnapshotIdempotentAtTip: snapshotting when nothing was journaled
// since the last snapshot (including a fresh journal at seq 0) must be a
// no-op, not a collision with the already-rotated active segment.
func TestWriteSnapshotIdempotentAtTip(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	defer j.Close()

	// Fresh journal, seq 0: nothing to cover.
	if err := j.WriteSnapshot(SnapshotHeader{}, nil); err != nil {
		t.Fatalf("snapshot of empty journal: %v", err)
	}
	if j.SnapshotSeq() != 0 {
		t.Fatalf("empty snapshot recorded seq %d", j.SnapshotSeq())
	}

	mustAppend(t, j, testEvents(5)...)
	if err := j.WriteSnapshot(SnapshotHeader{Seq: 5}, []byte("state")); err != nil {
		t.Fatal(err)
	}
	if j.SnapshotSeq() != 5 {
		t.Fatalf("snapshot seq %d, want 5", j.SnapshotSeq())
	}
	// Again with no new events: must not rotate or error.
	if err := j.WriteSnapshot(SnapshotHeader{Seq: 5}, []byte("state")); err != nil {
		t.Fatalf("repeat snapshot at tip: %v", err)
	}
	mustAppend(t, j, testEvents(3)...)
	if seq, err := j.Append(Event{Kind: KindFailLink, Link: 1}); err != nil || seq != 9 {
		t.Fatalf("append after idempotent snapshots: seq %d, err %v", seq, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, dir)
	if rec.SnapshotSeq != 5 || rec.LastSeq != 9 || len(rec.Events) != 4 {
		t.Fatalf("reopen recovered snap=%d last=%d events=%d", rec.SnapshotSeq, rec.LastSeq, len(rec.Events))
	}
}
