package journal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openGroup(t *testing.T, dir string) *Journal {
	t.Helper()
	j, rec, err := Open(dir, Options{GroupCommit: true, GroupCommitMaxWait: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != 0 {
		t.Fatalf("fresh dir recovered seq %d", rec.LastSeq)
	}
	return j
}

// TestGroupCommitConcurrentAppends drives parallel appenders through
// AppendAsync + WaitDurable and checks the durability ledger: every
// acknowledged sequence is covered by SyncedSeq, the full history reads
// back contiguously, and the committer actually amortized (fewer fsync
// batches than records).
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j := openGroup(t, dir)

	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seq, err := j.AppendAsync(Event{Kind: KindEstablish, Src: int32(w), Dst: int32(i + 1), MinKbps: 100, MaxKbps: 500, IncKbps: 50, Utility: 1})
				if err != nil {
					errs <- err
					return
				}
				if err := j.WaitDurable(context.Background(), seq); err != nil {
					errs <- err
					return
				}
				if synced := j.SyncedSeq(); synced < seq {
					errs <- fmt.Errorf("acked seq %d but SyncedSeq %d", seq, synced)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const total = workers * perWorker
	if got := j.LastSeq(); got != total {
		t.Fatalf("LastSeq %d, want %d", got, total)
	}
	if got := j.SyncedSeq(); got != total {
		t.Fatalf("SyncedSeq %d, want %d", got, total)
	}
	batches, covered := j.GroupCommitStats()
	if covered != total {
		t.Fatalf("batches covered %d records, want %d", covered, total)
	}
	if batches <= 0 || batches >= total {
		t.Fatalf("committer issued %d batches for %d records — no amortization", batches, total)
	}
	t.Logf("group commit: %d records in %d fsync batches (%.1fx amortization)",
		total, batches, float64(covered)/float64(batches))

	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != total || len(rec.Events) != total {
		t.Fatalf("reopen recovered seq %d with %d events, want %d", rec.LastSeq, len(rec.Events), total)
	}
	for i, ev := range rec.Events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestGroupCommitSequentialAppendIsDurablePerCall checks that a lone
// sequential writer sees the synchronous Append contract: each call returns
// only after its record is durable, with no batching partner to wait for.
func TestGroupCommitSequentialAppendIsDurablePerCall(t *testing.T) {
	j := openGroup(t, t.TempDir())
	defer j.Close()
	for i := 0; i < 20; i++ {
		seq, err := j.Append(Event{Kind: KindEstablish, Src: 0, Dst: 1, MinKbps: 100, MaxKbps: 500, IncKbps: 50, Utility: 1})
		if err != nil {
			t.Fatal(err)
		}
		if synced := j.SyncedSeq(); synced < seq {
			t.Fatalf("Append returned seq %d before durable (synced %d)", seq, synced)
		}
	}
}

// TestGroupCommitSnapshotRotation interleaves snapshot writes (which rotate
// the active segment under the committer) with concurrent appends; every
// acknowledged record must survive a reopen.
func TestGroupCommitSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	j := openGroup(t, dir)
	for i := 0; i < 30; i++ {
		if _, err := j.Append(Event{Kind: KindEstablish, Src: 0, Dst: 1, MinKbps: 100, MaxKbps: 500, IncKbps: 50, Utility: 1}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := j.WriteSnapshot(SnapshotHeader{}, []byte{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != 30 {
		t.Fatalf("recovered seq %d, want 30", rec.LastSeq)
	}
}

// TestGroupCommitAbandonFailsTickets: abandoning the journal (crash
// simulation) must wake parked waiters with ErrAbandoned instead of leaving
// them blocked, and refuse further appends.
func TestGroupCommitAbandonFailsTickets(t *testing.T) {
	dir := t.TempDir()
	// A huge accumulation window keeps the ticket parked long enough for
	// Abandon to race in... except the committer syncs a lone pending record
	// immediately, so park a second one right behind it via a slow path:
	// abandon from another goroutine while this one waits.
	j, _, err := Open(dir, Options{GroupCommit: true, GroupCommitMaxWait: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := j.AppendAsync(Event{Kind: KindEstablish, Src: 0, Dst: 1, MinKbps: 100, MaxKbps: 500, IncKbps: 50, Utility: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- j.Abandon() }()
	// WaitDurable either returns nil (the committer won the race and synced
	// the record before Abandon) or ErrAbandoned — never hangs.
	werr := j.WaitDurable(context.Background(), seq)
	if werr != nil && !errors.Is(werr, ErrAbandoned) {
		t.Fatalf("WaitDurable after abandon: %v", werr)
	}
	if err := <-done; err != nil {
		t.Fatalf("abandon: %v", err)
	}
	if _, err := j.AppendAsync(Event{Kind: KindTerminate, Conn: 1}); err == nil {
		t.Fatal("append after abandon succeeded")
	}
	// The directory must still open (whatever survived is a valid prefix).
	if _, _, err := Open(dir, Options{}); err != nil {
		t.Fatalf("reopen after abandon: %v", err)
	}
}

// TestGroupCommitWaitDurableHonorsContext: a cancelled caller unparks with
// the context error instead of waiting for a batch that may never close.
func TestGroupCommitWaitDurableHonorsContext(t *testing.T) {
	j := openGroup(t, t.TempDir())
	defer j.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Seq far beyond anything written: without the context this would park
	// forever.
	if err := j.WaitDurable(ctx, 999); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitDurable with dead ctx: %v", err)
	}
}

// TestNonGroupJournalUnaffected: without GroupCommit the async API degrades
// to the synchronous contract and WaitDurable answers at once for a record
// it appended, so callers can be mode-oblivious.
func TestNonGroupJournalUnaffected(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := j.AppendAsync(Event{Kind: KindEstablish, Src: 0, Dst: 1, MinKbps: 100, MaxKbps: 500, IncKbps: 50, Utility: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WaitDurable(context.Background(), seq); err != nil {
		t.Fatalf("WaitDurable without group commit: %v", err)
	}
	if j.GroupCommit() {
		t.Fatal("GroupCommit() true without the option")
	}
	if err := j.Abandon(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err != nil {
		t.Fatalf("reopen after abandon: %v", err)
	}
	// The segment file must still be present and openable.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) == 0 {
		t.Fatal("no wal segment after abandon")
	}
	if _, err := os.Stat(segs[0]); err != nil {
		t.Fatal(err)
	}
}
