// Group commit: amortizing the per-record fsync across concurrent
// appenders while keeping the FsyncEvery:1 durability contract — no record
// is reported durable before an fsync covering it returned.
//
// The mechanics split the old synchronous Append into two halves:
//
//   - AppendAsync writes the framed record under the journal mutex and
//     returns its sequence number immediately. The record is on its way to
//     disk but NOT yet durable.
//   - WaitDurable parks the caller on a commit ticket until a committer
//     goroutine has fsynced a batch covering that sequence number. It is
//     the journal's one wait primitive: a replication poll parks on the
//     same broadcast for a record that does not exist yet, so the inline
//     fsync policies advance and signal the same ledger.
//
// With Options.GroupCommitMaxWait > 0 the committer does not sync a record
// the moment it sees it, even a lone one: it first yields the processor until
// two yields in a row bring no new record, or the wait cap passes, so a batch
// can form from appenders that are already runnable. One fdatasync then
// releases every ticket in the batch. The yields are not free. On
// durable-lowpop (two closed-loop clients, a sync for every record, 2-vCPU
// VM, three passes) with drserverd on its one processor, an append waited
// p50 26–30 µs for its sync to start with the committer idle and 38–64 µs
// with it still finishing the previous batch, beside a 74–80 µs fdatasync
// into preallocated space. At GOMAXPROCS=2 the same passes read 46–53,
// 62–75 and 91–104 µs: the append's wake-up crosses to the other processor.
// At one processor 97–98 % of appends find the committer idle, so a batch is
// almost always one record.
//
// An fsync failure is sticky: it poisons the journal, fails every parked
// and future ticket, and refuses further appends — a record whose
// durability is unknown must never be acknowledged.
package journal

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// ErrAbandoned reports that the journal was abandoned without a final sync
// (crash simulation); parked commit tickets fail instead of blocking.
var ErrAbandoned = errors.New("journal: abandoned")

// groupState is the ledger shared by appenders, ticket waiters and the
// committer goroutine. Lock order: j.mu may be held when taking gc.mu,
// never the reverse.
type groupState struct {
	mu      sync.Mutex
	wake    *sync.Cond // appenders → committer: new frames need syncing
	durable *sync.Cond // committer → waiters: syncedSeq advanced / journal died

	writeSeq  uint64 // highest sequence written to a segment file
	syncedSeq uint64 // highest sequence known durable (DurableSeq)
	installs  uint64 // InstallSnapshot count: a waiter's history was replaced
	parked    int    // WaitDurable callers blocked on durable; tests wait for it before ending a wait
	err       error  // sticky: the first fsync failure poisons the journal
	closing   bool   // Close/Abandon began; the committer must exit
	closed    bool   // terminal: syncedSeq will never advance again

	started bool
	done    chan struct{} // closed when the committer goroutine exits

	batches        int64 // fsyncs the committer issued
	batchedAppends int64 // records those fsyncs made durable
}

func newGroupState(lastSeq uint64) *groupState {
	gc := &groupState{writeSeq: lastSeq, syncedSeq: lastSeq, done: make(chan struct{})}
	gc.wake = sync.NewCond(&gc.mu)
	gc.durable = sync.NewCond(&gc.mu)
	return gc
}

// GroupCommit reports whether the journal batches fsyncs.
func (j *Journal) GroupCommit() bool { return j.opt.GroupCommit }

// SyncedSeq returns the highest sequence number known durable: the last
// fsynced batch under group commit, the appended tip otherwise (where
// Append applies the fsync policy inline before the record counts).
func (j *Journal) SyncedSeq() uint64 {
	j.gc.mu.Lock()
	defer j.gc.mu.Unlock()
	return j.gc.syncedSeq
}

// GroupCommitStats returns how many fsync batches the committer issued and
// how many records those batches covered. batchedAppends/batches is the
// realized amortization factor.
func (j *Journal) GroupCommitStats() (batches, batchedAppends int64) {
	j.gc.mu.Lock()
	defer j.gc.mu.Unlock()
	return j.gc.batches, j.gc.batchedAppends
}

// AppendAsync assigns the next sequence number to ev and writes the framed
// record. In group-commit mode the record is NOT yet durable when this
// returns: the caller must not acknowledge the mutation before
// WaitDurable(seq) succeeds. Without group commit this is exactly Append
// (the configured fsync policy applies inline). The caller must append
// BEFORE mutating state (write-ahead discipline).
func (j *Journal) AppendAsync(ev Event) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ev.Seq = j.seq + 1
	return j.appendLocked(ev)
}

// AppendReplicated appends a record that already carries its sequence
// number — a standby replaying a primary's stream keeps the primary's
// numbering so resume-from-seq and fingerprint verify points line up. The
// record must extend the log exactly (ev.Seq == LastSeq+1); durability
// semantics match AppendAsync (pair with WaitDurable in group-commit mode).
func (j *Journal) AppendReplicated(ev Event) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ev.Seq != j.seq+1 {
		return 0, fmt.Errorf("journal: replicated record seq %d does not extend local tip %d", ev.Seq, j.seq)
	}
	return j.appendLocked(ev)
}

// appendLocked writes the framed record for ev (whose Seq the caller set)
// and applies the fsync policy. Caller holds j.mu.
func (j *Journal) appendLocked(ev Event) (uint64, error) {
	if j.f == nil {
		return 0, errors.New("journal: closed")
	}
	if j.opt.GroupCommit {
		j.gc.mu.Lock()
		gcErr := j.gc.err
		j.gc.mu.Unlock()
		if gcErr != nil {
			// Poisoned: a previous batch fsync failed. New records could
			// never be reported durable, so refuse them outright.
			return 0, gcErr
		}
	}
	j.buf = appendFrame(j.buf[:0], appendEvent(nil, ev))
	if err := j.reserve(int64(len(j.buf))); err != nil {
		return 0, fmt.Errorf("journal: append seq %d: %w", ev.Seq, err)
	}
	// At the logical end, inside allocated space: not at the file's end.
	if _, err := j.f.WriteAt(j.buf, j.off); err != nil {
		return 0, fmt.Errorf("journal: append seq %d: %w", ev.Seq, err)
	}
	j.off += int64(len(j.buf))
	if !j.opt.GroupCommit && j.opt.FsyncEvery > 0 {
		if err := datasync(j.f); err != nil {
			return 0, fmt.Errorf("journal: fsync seq %d: %w", ev.Seq, err)
		}
	}
	j.seq = ev.Seq
	j.tail.push(ev.Seq, j.buf)
	if j.opt.GroupCommit {
		j.gc.mu.Lock()
		j.gc.writeSeq = ev.Seq
		j.gc.wake.Signal()
		j.gc.mu.Unlock()
	} else {
		// The inline policy has been applied: the record is as durable as
		// this mode makes it. Wake WaitDurable the way the committer would.
		j.markSyncedLocked()
	}
	return ev.Seq, nil
}

// WaitDurable blocks until DurableSeq() >= seq — an fsync covering the
// record returned under group commit, the record was appended under an
// inline fsync policy — or until that can no longer be waited for: the
// journal closed or died, InstallSnapshot replaced the history seq belongs
// to, or ctx ended. A nil return is the durability acknowledgment. seq may
// name a record that has not been appended yet: a replication poll parks
// here for the next record the way an acknowledgment parks for its own.
func (j *Journal) WaitDurable(ctx context.Context, seq uint64) error {
	if seq == 0 {
		return nil
	}
	gc := j.gc
	gc.mu.Lock()
	installs := gc.installs
	if gc.syncedSeq >= seq {
		gc.mu.Unlock()
		return nil
	}
	gc.mu.Unlock()
	// A cancelled caller must not park forever; cond vars cannot select on a
	// context, so cancellation is turned into a broadcast.
	stop := context.AfterFunc(ctx, func() {
		gc.mu.Lock()
		gc.durable.Broadcast()
		gc.mu.Unlock()
	})
	defer stop()
	gc.mu.Lock()
	defer gc.mu.Unlock()
	for {
		if gc.syncedSeq >= seq {
			return nil
		}
		if gc.err != nil {
			return gc.err
		}
		if gc.closed {
			return fmt.Errorf("journal: closed before seq %d became durable", seq)
		}
		if gc.installs != installs {
			return fmt.Errorf("journal: snapshot installed before seq %d became durable", seq)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		gc.parked++
		gc.durable.Wait()
		gc.parked--
	}
}

// committer is the single goroutine that turns pending writes into durable
// batches: wait for work, optionally let a forming batch accumulate, fsync
// once, release every ticket the sync covered.
func (j *Journal) committer() {
	gc := j.gc
	defer close(gc.done)
	maxWait := j.opt.GroupCommitMaxWait
	for {
		gc.mu.Lock()
		for gc.writeSeq == gc.syncedSeq && gc.err == nil && !gc.closing {
			gc.wake.Wait()
		}
		if gc.closing || gc.err != nil {
			gc.mu.Unlock()
			return
		}
		target := gc.writeSeq
		gc.mu.Unlock()

		if maxWait > 0 {
			// Scoop up appenders that are already runnable by yielding the
			// processor instead of sleeping — timer granularity on small
			// machines (~1ms) would otherwise cost more than the fsync being
			// amortized, and workers released by the previous batch are often
			// one scheduler slice away from their next append. A lone writer
			// still pays two yields, tens of µs when other goroutines are
			// runnable (see the package comment). Exit as soon as the batch
			// stops growing or the latency cap is reached.
			deadline := time.Now().Add(maxWait)
			idle := 0
			for idle < 2 && time.Now().Before(deadline) {
				runtime.Gosched()
				gc.mu.Lock()
				if gc.writeSeq > target {
					target = gc.writeSeq
					idle = 0
				} else {
					idle++
				}
				stop := gc.closing
				gc.mu.Unlock()
				if stop {
					break
				}
			}
		}

		j.mu.Lock()
		f := j.f
		j.mu.Unlock()
		var err error
		if f != nil {
			err = datasync(f)
		}

		gc.mu.Lock()
		switch {
		case gc.syncedSeq >= target:
			// A snapshot pre-sync or explicit Sync covered the batch first
			// (and may have rotated the file under us — any sync error above
			// came from the superseded segment and is moot).
		case err != nil:
			gc.err = fmt.Errorf("journal: group-commit fsync: %w", err)
		default:
			gc.batches++
			gc.batchedAppends += int64(target - gc.syncedSeq)
			gc.syncedSeq = target
		}
		gc.durable.Broadcast()
		gc.mu.Unlock()
	}
}

// markSyncedLocked records — under j.mu, after a successful fsync of the
// active segment or an inline-policy append — that every written record is
// as durable as the mode makes it, releasing parked WaitDurable callers.
// Sync, Close and the snapshot pre-sync route through it so the committer
// never re-syncs work another path already made durable.
func (j *Journal) markSyncedLocked() {
	gc := j.gc
	gc.mu.Lock()
	if j.seq > gc.syncedSeq {
		gc.syncedSeq = j.seq
	}
	gc.durable.Broadcast()
	gc.mu.Unlock()
}

// stopCommitter asks the committer goroutine to exit and waits for it.
// poison, when non-nil, fails all parked and future tickets (Abandon).
func (j *Journal) stopCommitter(poison error) {
	gc := j.gc
	gc.mu.Lock()
	if poison != nil && gc.err == nil {
		gc.err = poison
	}
	gc.closing = true
	started := gc.started
	gc.wake.Broadcast()
	gc.durable.Broadcast()
	gc.mu.Unlock()
	if started {
		<-gc.done
	}
}

// Abandon closes the journal WITHOUT syncing — the crash-simulation
// counterpart of Close. Unsynced writes are at the mercy of the page cache,
// parked commit tickets fail with ErrAbandoned, and the files stay valid
// for a later Open (which sees whatever "survived the crash").
func (j *Journal) Abandon() error {
	j.stopCommitter(ErrAbandoned)
	j.mu.Lock()
	defer j.mu.Unlock()
	gc := j.gc
	gc.mu.Lock()
	gc.closed = true
	gc.durable.Broadcast()
	gc.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
