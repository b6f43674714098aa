package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// numbered returns evs with the sequence numbers 1.. an append assigns.
func numbered(evs []Event) []Event {
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	return evs
}

// abandoned appends n test events to a fresh journal in dir and abandons
// it, as a crash would: the segment keeps whatever space it allocated. It
// returns the segment's bytes and the length of its records.
func abandoned(t testing.TB, dir string, n int) (data []byte, end int) {
	t.Helper()
	j, _, err := Open(dir, Options{FsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range testEvents(n) {
		if _, err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Abandon(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	if data, err = os.ReadFile(seg); err != nil {
		t.Fatal(err)
	}
	return data, len(EncodeFramesForTesting(testEvents(n)))
}

// requirePrealloc skips where the filesystem under the test's temp dir
// cannot preallocate.
func requirePrealloc(t *testing.T) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "probe"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := allocateSpace(f, 0, 1); errors.Is(err, errors.ErrUnsupported) {
		t.Skip("no fallocate here:", err)
	}
}

// reopenAppendClose opens dir, requires that it replays want and reports
// a torn tail exactly when torn, appends one record and closes; the
// segment must then hold exactly want plus that record, back to back.
func reopenAppendClose(t *testing.T, dir string, want []Event, torn bool) {
	t.Helper()
	j, rec := mustOpen(t, dir)
	if (rec.TornBytes > 0) != torn {
		t.Fatalf("TornBytes %d, want a torn tail: %v", rec.TornBytes, torn)
	}
	if !reflect.DeepEqual(rec.Events, want) {
		t.Fatalf("replayed %d events, want %d", len(rec.Events), len(want))
	}
	extra := Event{Kind: KindTerminate, Conn: 99, Seq: uint64(len(want) + 1)}
	mustAppend(t, j, extra)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(onlySegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if wantBytes := EncodeFramesForTesting(append(want, extra)); !bytes.Equal(got, wantBytes) {
		t.Fatalf("closed segment is %d bytes, want exactly its %d records' %d", len(got), len(want)+1, len(wantBytes))
	}
}

// TestZeroTailIsNotTorn: an abandoned segment ends in the zeros it was
// allocated with. Reopening reads them as space, not as a torn tail, and
// the next record lands right after the last one — not after the zeros.
func TestZeroTailIsNotTorn(t *testing.T) {
	requirePrealloc(t)
	dir := t.TempDir()
	data, end := abandoned(t, dir, 10)
	if len(data) != segmentChunk || len(bytes.TrimRight(data, "\x00")) > end {
		t.Fatalf("abandoned segment: %d bytes, records %d, want them followed by zeros to %d", len(data), end, segmentChunk)
	}
	reopenAppendClose(t, dir, numbered(testEvents(10)), false)
}

// TestTornTailBeforeZeros: damage followed by zeros is a torn tail in every
// shape — a partial frame, or garbage past a run of zeros — and Open clears
// it, so the next record is not followed by it.
func TestTornTailBeforeZeros(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kept   int // records that survive the damage
		damage func(data []byte, end int)
	}{
		// Only the last record's header reached the disk.
		{"partial-frame", 9, func(data []byte, end int) {
			clear(data[len(EncodeFramesForTesting(testEvents(9)))+frameHeaderSize : end])
		}},
		{"garbage-after-zeros", 10, func(data []byte, end int) { copy(data[end+1000:], bytes.Repeat([]byte{0xff}, 16)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			data, end := abandoned(t, dir, 10)
			data = append(data[:end], make([]byte, segmentChunk)...)
			tc.damage(data, end)
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			reopenAppendClose(t, dir, numbered(testEvents(10))[:tc.kept], true)
		})
	}
}

// TestZeroTailInEarlierSegmentReadThrough: a crash between a rotation and
// the old segment's trim leaves its zero tail; the next segment goes on.
func TestZeroTailInEarlierSegmentReadThrough(t *testing.T) {
	dir := t.TempDir()
	evs := numbered(testEvents(8))
	first := append(EncodeFramesForTesting(evs[:5]), make([]byte, segmentChunk)...)
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), first, 0o644); err != nil {
		t.Fatal(err)
	}
	second := append(EncodeFramesForTesting(evs[5:]), make([]byte, 100)...)
	if err := os.WriteFile(filepath.Join(dir, segmentName(6)), second, 0o644); err != nil {
		t.Fatal(err)
	}
	j, rec := mustOpen(t, dir)
	defer j.Close()
	if rec.TornBytes != 0 || !reflect.DeepEqual(rec.Events, evs) {
		t.Fatalf("replayed %d events with %d torn bytes, want all 8 and none", len(rec.Events), rec.TornBytes)
	}
}

// TestZeroedRangeBeforeValidFrameRefused: zeros with a valid record after
// them are lost records, not preallocated space.
func TestZeroedRangeBeforeValidFrameRefused(t *testing.T) {
	frames := EncodeFramesForTesting(numbered(testEvents(10)))
	third := len(EncodeFramesForTesting(testEvents(2)))
	fourth := len(EncodeFramesForTesting(testEvents(3)))
	for name, hole := range map[string][2]int{
		"whole-frame":   {third, fourth},
		"across-frames": {third + 3, fourth + 5},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			data := append(bytes.Clone(frames), make([]byte, segmentChunk)...)
			clear(data[hole[0]:hole[1]])
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := Open(dir, Options{})
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "valid records follow") {
				t.Fatalf("zeroed records: err %v, want ErrCorrupt with valid records following", err)
			}
		})
	}
}

// TestClosedSegmentsAreTheirRecords: Close and a snapshot's rotation trim
// a segment to its records — what a segment costs on disk once closed.
func TestClosedSegmentsAreTheirRecords(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	mustAppend(t, j, testEvents(6)...)
	// The rotation deletes the closed segment; a second link keeps it.
	kept := filepath.Join(t.TempDir(), "rotated")
	if err := os.Link(onlySegment(t, dir), kept); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteSnapshot(SnapshotHeader{}, []byte("state@6")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, testEvents(3)...)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for path, n := range map[string]int{kept: 6, onlySegment(t, dir): 3} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(EncodeFramesForTesting(testEvents(n))); fi.Size() != int64(want) {
			t.Fatalf("%s: %d bytes, want its %d records' %d", filepath.Base(path), fi.Size(), n, want)
		}
	}
}

// TestNoFallocateGrowsByAppends: a filesystem that refuses fallocate gets
// segments that grow by their writes, through a rotation and a reopen, and
// keeps every record.
func TestNoFallocateGrowsByAppends(t *testing.T) {
	fallocate = func(*os.File, int64, int64) error { return os.NewSyscallError("fallocate", syscall.EOPNOTSUPP) }
	t.Cleanup(func() { fallocate = allocateSpace })
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	// More than a chunk's worth, so a preallocating journal would grow.
	evs := numbered(testEvents(3000))
	mustAppend(t, j, evs[:2000]...)
	if fi, err := os.Stat(onlySegment(t, dir)); err != nil || fi.Size() != int64(len(EncodeFramesForTesting(evs[:2000]))) {
		t.Fatalf("segment without fallocate: %v, %v; want exactly its records", fi.Size(), err)
	}
	if err := j.WriteSnapshot(SnapshotHeader{}, []byte("state@2000")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, evs[2000:2500]...)
	if err := j.Abandon(); err != nil {
		t.Fatal(err)
	}
	j, rec := mustOpen(t, dir)
	mustAppend(t, j, evs[2500:]...)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.TornBytes != 0 || !reflect.DeepEqual(rec.Events, evs[2000:2500]) {
		t.Fatalf("reopened without fallocate: %d events, %d torn bytes", len(rec.Events), rec.TornBytes)
	}
	_, rec = mustOpen(t, dir)
	if !reflect.DeepEqual(rec.Events, evs[2000:]) {
		t.Fatalf("lost records without fallocate: replayed %d of %d", len(rec.Events), len(evs[2000:]))
	}
}

// FuzzOpenSegment: whatever happened to the bytes of a real segment — its
// zero tail included — Open either refuses or replays a prefix of the
// records it held; never anything else. When it does replay, the journal
// goes on right after that prefix: after a crash (Abandon, no sync to
// wait for), the next Open reads back exactly the prefix and the record
// appended.
func FuzzOpenSegment(f *testing.F) {
	data, end := abandoned(f, f.TempDir(), 12)
	if len(data) == end {
		// No fallocate here: give the seeds the zero tail it would leave.
		data = append(data, make([]byte, segmentChunk)...)
	}
	f.Add(data)
	torn := bytes.Clone(data)
	clear(torn[end-5 : end])
	f.Add(torn)
	garbage := bytes.Clone(data)
	copy(garbage[end+64:], "\xff\xff\xff\xff garbage after the zeros")
	f.Add(garbage)

	want := numbered(testEvents(12))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec, err := Open(dir, Options{FsyncEvery: -1})
		if err != nil {
			return
		}
		n := len(rec.Events)
		if n > len(want) || (n > 0 && !reflect.DeepEqual(rec.Events, want[:n])) {
			j.Close()
			t.Fatalf("replayed %d events that are not a prefix of the segment's %d: %v", len(rec.Events), len(want), rec.Events)
		}
		extra := Event{Kind: KindTerminate, Conn: 99, Seq: uint64(len(rec.Events) + 1)}
		if _, err := j.Append(extra); err != nil {
			t.Fatal(err)
		}
		if err := j.Abandon(); err != nil {
			t.Fatal(err)
		}
		j, again, err := Open(dir, Options{FsyncEvery: -1})
		if err != nil {
			t.Fatalf("reopening after an append: %v", err)
		}
		defer j.Abandon()
		if again.TornBytes != 0 || !reflect.DeepEqual(again.Events, append(rec.Events, extra)) {
			t.Fatalf("reopened to %d events with %d torn bytes, want the %d replayed plus the one appended", len(again.Events), again.TornBytes, len(rec.Events))
		}
	})
}
