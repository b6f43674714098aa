package journal

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// waitModes are the three ways a record becomes durable; WaitDurable is one
// primitive over all of them.
var waitModes = []struct {
	name string
	opt  Options
}{
	{"group-commit", Options{GroupCommit: true}},
	{"fsync-inline", Options{FsyncEvery: 1}},
	{"fsync-never", Options{FsyncEvery: -1}},
}

// parkOnNext appends three records, proves a wait for the fourth does not
// answer before the record exists, and parks a waiter on it. It returns
// once the waiter is blocked: a waiter that had not yet read the install
// count when an InstallSnapshot landed would wait for seq 4 of the new
// history, which nothing in these tests writes.
func parkOnNext(t *testing.T, j *Journal, ctx context.Context) <-chan error {
	t.Helper()
	mustAppend(t, j, testEvents(3)...)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := j.WaitDurable(expired, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitDurable for a record that does not exist yet: %v, want the context's error", err)
	}
	done := make(chan error, 1)
	go func() { done <- j.WaitDurable(ctx, 4) }()
	for parked(j) == 0 {
		select {
		case err := <-done:
			t.Fatalf("WaitDurable for seq 4 answered %v instead of parking", err)
		case <-time.After(time.Millisecond):
		}
	}
	return done
}

// parked counts the WaitDurable callers blocked on j.
func parked(j *Journal) int {
	j.gc.mu.Lock()
	defer j.gc.mu.Unlock()
	return j.gc.parked
}

func awaitWake(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("parked WaitDurable was not woken")
		return nil
	}
}

// TestWaitDurableWakesOnAppend: in every fsync mode a waiter parked on a
// record that has not been appended yet is released by the append that makes
// it durable — the event a replication poll parks on.
func TestWaitDurableWakesOnAppend(t *testing.T) {
	for _, m := range waitModes {
		t.Run(m.name, func(t *testing.T) {
			j, _, err := Open(t.TempDir(), m.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			done := parkOnNext(t, j, context.Background())
			if _, err := j.AppendAsync(Event{Kind: KindTerminate, Conn: 9}); err != nil {
				t.Fatal(err)
			}
			if err := awaitWake(t, done); err != nil {
				t.Fatalf("woken with %v, want nil", err)
			}
			if got := j.DurableSeq(); got < 4 {
				t.Fatalf("released at durable seq %d, want >= 4", got)
			}
		})
	}
}

// TestWaitDurableWakesWhenWaitingIsOver: everything else that ends the wait
// releases the waiter with an error — never nil, which would acknowledge a
// record that is not durable.
func TestWaitDurableWakesWhenWaitingIsOver(t *testing.T) {
	enders := []struct {
		name string
		end  func(j *Journal, cancel context.CancelFunc) error
		want error // nil: any error
	}{
		{"close", func(j *Journal, _ context.CancelFunc) error { return j.Close() }, nil},
		{"abandon", func(j *Journal, _ context.CancelFunc) error { return j.Abandon() }, ErrAbandoned},
		{"install-snapshot-below", func(j *Journal, _ context.CancelFunc) error {
			return j.InstallSnapshot(SnapshotHeader{Seq: 2}, []byte("state@2"))
		}, nil},
		{"ctx-cancel", func(_ *Journal, cancel context.CancelFunc) error { cancel(); return nil }, context.Canceled},
	}
	for _, m := range waitModes {
		for _, e := range enders {
			t.Run(m.name+"/"+e.name, func(t *testing.T) {
				j, _, err := Open(t.TempDir(), m.opt)
				if err != nil {
					t.Fatal(err)
				}
				defer j.Close()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				done := parkOnNext(t, j, ctx)
				if err := e.end(j, cancel); err != nil {
					t.Fatal(err)
				}
				err = awaitWake(t, done)
				if err == nil || (e.want != nil && !errors.Is(err, e.want)) {
					t.Fatalf("woken with %v, want %v", err, e.want)
				}
			})
		}
	}
}

// TestWaitDurableInstallSnapshotCoveringSeq: an installed snapshot that
// covers the awaited sequence number makes it durable like any fsync.
func TestWaitDurableInstallSnapshotCoveringSeq(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir())
	defer j.Close()
	done := parkOnNext(t, j, context.Background())
	if err := j.InstallSnapshot(SnapshotHeader{Seq: 7}, []byte("state@7")); err != nil {
		t.Fatal(err)
	}
	if err := awaitWake(t, done); err != nil {
		t.Fatalf("woken with %v, want nil", err)
	}
}

// sameAsDisk checks one read three ways: the bytes ReadFrames serves equal
// the disk walk's, ReadFrom is their decoding, and the read touched the
// files only if from lies below the ring.
func sameAsDisk(t *testing.T, j *Journal, from uint64, max int) {
	ringLow := j.tail.low
	walks := j.DiskWalksForTesting()
	got, n, err := j.ReadFrames(from, max)
	walked := j.DiskWalksForTesting() != walks
	if from <= j.SnapshotSeq() {
		// Below the snapshot the segment files are gone: only the ring can
		// still hold the records, and what it holds it serves.
		if j.tail.high == 0 || from < ringLow {
			if !errors.Is(err, ErrCompacted) {
				t.Fatalf("ReadFrames(%d) below snapshot %d and ring [%d,%d]: %v, want ErrCompacted", from, j.SnapshotSeq(), ringLow, j.tail.high, err)
			}
			return
		}
		if err != nil || walked || n == 0 {
			t.Fatalf("ReadFrames(%d) below snapshot %d, held by ring [%d,%d]: %d records, walked=%v, err %v", from, j.SnapshotSeq(), ringLow, j.tail.high, n, walked, err)
		}
		evs, err := DecodeFrames(got)
		if err != nil || len(evs) != n || evs[0].Seq != from || evs[n-1].Seq != from+uint64(n)-1 {
			t.Fatalf("ReadFrames(%d) from the ring: %d events, err %v", from, len(evs), err)
		}
		// Past the snapshot the files still hold the rest: same bytes.
		if above := j.SnapshotSeq() + 1; above <= from+uint64(n)-1 {
			want, _, err := j.walkFrames(above, int(from+uint64(n)-above), j.DurableSeq())
			if err != nil || !bytes.Equal(EncodeFramesForTesting(evs[above-from:]), want) {
				t.Fatalf("ReadFrames(%d) from the ring disagrees with the disk past the snapshot (err %v)", from, err)
			}
		}
		return
	}
	if err != nil {
		t.Fatalf("ReadFrames(%d,%d): %v", from, max, err)
	}
	if from > j.DurableSeq() {
		if n != 0 || walked {
			t.Fatalf("ReadFrames(%d) past the tip: %d records, walked=%v", from, n, walked)
		}
		return
	}
	if wantWalk := j.tail.high == 0 || from < ringLow; walked != wantWalk {
		t.Fatalf("ReadFrames(%d) with ring [%d,%d]: disk walk %v, want %v", from, ringLow, j.tail.high, walked, wantWalk)
	}
	want, wantN, err := j.walkFrames(from, max, j.DurableSeq())
	if err != nil {
		t.Fatal(err)
	}
	if n != wantN || !bytes.Equal(got, want) {
		t.Fatalf("ReadFrames(%d,%d) = %d records / %d bytes, disk walk %d / %d", from, max, n, len(got), wantN, len(want))
	}
	evs, err := j.ReadFrom(from, max)
	if err != nil || len(evs) != n || evs[0].Seq != from || evs[n-1].Seq != from+uint64(n)-1 {
		t.Fatalf("ReadFrom(%d,%d): %d events, err %v", from, max, len(evs), err)
	}
	if !bytes.Equal(EncodeFramesForTesting(evs), want) {
		t.Fatalf("ReadFrom(%d,%d) is not the decoding of the disk walk", from, max)
	}
	// The prev_crc verdict: stored CRC == EventCRC of the record on disk.
	crc, ok, err := j.FrameCRC(from)
	if err != nil || !ok || crc != EventCRC(evs[0]) || crc != binary.LittleEndian.Uint32(want[4:]) {
		t.Fatalf("FrameCRC(%d) = %08x ok=%v err=%v, disk says %08x", from, crc, ok, err, EventCRC(evs[0]))
	}
}

// TestTailRingMatchesDiskWalk: for random from/max on both sides of the
// ring boundary, across a snapshot rotation, an InstallSnapshot and a
// Reload, whatever the ring serves is byte for byte what the disk walk
// serves — and what lies below the ring is read from disk, not guessed.
func TestTailRingMatchesDiskWalk(t *testing.T) {
	for _, m := range waitModes {
		t.Run(m.name, func(t *testing.T) {
			j, _, err := Open(t.TempDir(), m.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			r := rand.New(rand.NewSource(17))
			probe := func(stage string) {
				t.Log("probing after", stage)
				tip := j.LastSeq()
				for i := 0; i < 200; i++ {
					from := uint64(r.Int63n(int64(tip)+3)) + 1
					sameAsDisk(t, j, from, 1+r.Intn(2*tailRingSize))
				}
				// The boundary itself, both sides, and the whole ring at once.
				for _, from := range []uint64{j.tail.low - 1, j.tail.low, j.tail.low + 1, tip - 1, tip, tip + 1} {
					if from >= 1 && from <= tip+1 {
						sameAsDisk(t, j, from, 1)
						sameAsDisk(t, j, from, 4*tailRingSize)
					}
				}
			}
			mustAppend(t, j, testEvents(tailRingSize/2)...)
			probe("a half-full ring")
			mustAppend(t, j, testEvents(tailRingSize+40)...)
			probe("the ring wrapped")
			if err := j.WriteSnapshot(SnapshotHeader{}, []byte("state")); err != nil {
				t.Fatal(err)
			}
			probe("a snapshot rotated the segment under the ring")
			mustAppend(t, j, testEvents(30)...)
			probe("appends into the fresh segment")
			if _, err := j.Reload(); err != nil {
				t.Fatal(err)
			}
			if j.tail.high != 0 {
				t.Fatal("Reload kept the ring")
			}
			probe("Reload emptied the ring")
			mustAppend(t, j, testEvents(5)...)
			probe("appends after Reload")

			base := j.LastSeq() + 100
			if err := j.InstallSnapshot(SnapshotHeader{Seq: base}, []byte("shipped")); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := j.FrameCRC(base); ok || !errors.Is(err, ErrCompacted) {
				t.Fatalf("FrameCRC at the installed snapshot: ok=%v err=%v, want ErrCompacted", ok, err)
			}
			if _, ok, err := j.FrameCRC(base + 1); ok || err != nil {
				t.Fatalf("FrameCRC past the tip: ok=%v err=%v", ok, err)
			}
			for i, ev := range testEvents(tailRingSize + 7) {
				ev.Seq = base + uint64(i) + 1
				if _, err := j.AppendReplicated(ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.WaitDurable(context.Background(), j.LastSeq()); err != nil {
				t.Fatal(err)
			}
			probe("InstallSnapshot and a replicated tail")
		})
	}
}

// TestTailRingNeverServesPastDurable: under group commit the ring holds
// frames the committer has not fsynced yet; a read must stop at the durable
// tip exactly as the disk walk does.
func TestTailRingNeverServesPastDurable(t *testing.T) {
	j := openGroup(t, t.TempDir())
	defer j.Close()
	for i, ev := range testEvents(400) {
		if _, err := j.AppendAsync(ev); err != nil {
			t.Fatal(err)
		}
		_, n, err := j.ReadFrames(1, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if durable := j.DurableSeq(); uint64(n) > durable {
			t.Fatalf("after append %d: served %d records with only %d durable", i+1, n, durable)
		}
	}
}

// BenchmarkTailRead is the steady-state stream read — the newest record out
// of a segment of the given size — served by the ring and by the disk walk.
func BenchmarkTailRead(b *testing.B) {
	for _, records := range []int{64, 1024} {
		j, _, err := Open(b.TempDir(), Options{FsyncEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range testEvents(records) {
			if _, err := j.Append(ev); err != nil {
				b.Fatal(err)
			}
		}
		tip := j.LastSeq()
		b.Run(fmt.Sprintf("ring/segment=%d", records), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, n, err := j.ReadFrames(tip, 1); err != nil || n != 1 {
					b.Fatal(n, err)
				}
			}
		})
		b.Run(fmt.Sprintf("disk/segment=%d", records), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, n, err := j.walkFrames(tip, 1, tip); err != nil || n != 1 {
					b.Fatal(n, err)
				}
			}
		})
		j.Close()
	}
}
