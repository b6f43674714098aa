// The command pipeline: the one place that decides how a command reaches
// the loop, and how a mutation is guarded, journaled, applied, published and
// acknowledged. Every exported operation is a declaration on top of it —
// mutate for the seven originating mutations, query for reads and admin
// commands — so the protocol (DESIGN.md "Write path") is written once.
package server

import (
	"context"
	"errors"
	"sync/atomic"

	"drqos/internal/journal"
	"drqos/internal/manager"
)

// exec runs fn inside the loop on lane l and returns its answer, or gives
// up when the caller's context dies first (the loop then sheds the command,
// or — if execution had already begun — discards its result). A critical
// command (recovery swap, promotion, demotion) is only governed by ctx
// until it is accepted: from then on it always runs and exec waits it out.
func exec[T any](s *Server, ctx context.Context, l lane, critical bool, fn func(*manager.Manager) (T, error)) (T, error) {
	type answer struct {
		v   T
		err error
	}
	ch := make(chan answer, 1)
	if err := s.submit(ctx, l, critical, func(m *manager.Manager) {
		v, err := fn(m)
		ch <- answer{v, err}
	}); err != nil {
		var zero T
		return zero, err
	}
	if critical {
		// An accepted command runs exactly once even through Shutdown's
		// drain, so this wait always terminates.
		ctx = context.Background()
	}
	select {
	case a := <-ch:
		return a.v, a.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// query runs a read or admin command on the freeing lane: observability and
// the commands that un-wedge the service never queue behind admissions.
func query[T any](s *Server, ctx context.Context, fn func(*manager.Manager) (T, error)) (T, error) {
	return exec(s, ctx, laneFreeing, false, fn)
}

// do is query for commands that only answer an error.
func (s *Server) do(ctx context.Context, critical bool, fn func(*manager.Manager) error) error {
	_, err := exec(s, ctx, laneFreeing, critical, func(m *manager.Manager) (struct{}, error) {
		return struct{}{}, fn(m)
	})
	return err
}

// admit is the guard an originating mutation passes before it may queue:
// while the overloaded state holds, new capacity-consuming work is refused
// outright instead of deepening the backlog that latched it. Work already
// queued still runs, and freeing work is never refused — it is what ends an
// overload.
func (s *Server) admit(l lane) error {
	if l == laneConsuming && s.Overloaded() {
		return ErrOverloaded
	}
	return nil
}

// guard is the refusal list an originating mutation passes inside the loop,
// in order, before anything is validated or journaled: an untrusted manager
// takes no further event, and a follower's state advances only through its
// primary's stream. Both flip only inside loop commands, so checking them
// here is atomic with the journaling that follows.
func (s *Server) guard() error {
	if err := s.refuseIfDegraded(); err != nil {
		return err
	}
	if s.follower.Load() {
		return ErrNotPrimary
	}
	return nil
}

// mutation declares one originating command: the lane it rides, the
// CommandStats bucket it counts in (nil = uncounted) and what it amounts to
// — a single event, refused if Validate objects, or a plan.
//
// A plan runs in the loop against current state and names the events to
// journal and apply, in order. Its error refuses the command before it
// touches the journal; no events and no error acknowledges it as already
// done (an idempotent abort, a retried prepare) with the result it supplied.
type mutation struct {
	lane    lane
	counter *atomic.Int64
	event   journal.Event
	plan    func(*manager.Manager) ([]journal.Event, manager.Outcome, error)
}

// mutate is the write path of an originating mutation. Admission first
// (admit); then inside the loop: count it, run the guards, validate or plan
// the command into events, then — per event — journal (write-ahead), apply
// through the transition function, latch any invariant violation and feed
// the forecaster; finally keep the snapshot cadence, publish the epoch and
// detach the answer from live state. Outside the loop the caller is
// acknowledged — success or domain error alike, a rejection was
// journaled and bumped counters too — only after the last record is durable
// and, under semi-synchronous replication, fetched by a standby.
func (s *Server) mutate(ctx context.Context, mu mutation) (manager.Outcome, error) {
	type ack struct {
		res manager.Outcome
		err error
		seq uint64
	}
	if err := s.admit(mu.lane); err != nil {
		return manager.Outcome{}, err
	}
	a, err := exec(s, ctx, mu.lane, false, func(m *manager.Manager) (a ack, _ error) {
		// Whatever path answers, the answer leaves the loop detached.
		defer func() { detach(&a.res) }()
		if mu.counter != nil {
			mu.counter.Add(1)
		}
		if err := s.guard(); err != nil {
			return ack{err: err}, nil
		}
		evs := []journal.Event{mu.event}
		if mu.plan != nil {
			evs, a.res, a.err = mu.plan(m)
		} else {
			a.err = Validate(m, s.txns, mu.event)
		}
		if a.err != nil || len(evs) == 0 {
			return a, nil
		}
		for _, ev := range evs {
			seq, jerr := s.journalAppend(ev)
			if jerr != nil {
				// Not journaled, so not applied. Records before it stand:
				// their durability is still awaited below.
				a.err = jerr
				break
			}
			a.seq = seq
			alivePrior := m.AliveCount()
			a.res, a.err = apply(m, s.txns, ev)
			s.noteViolation(a.err)
			s.countFailure(a.res.Failure)
			s.observe(m, ev, a.res, a.err, alivePrior)
			if a.err != nil {
				break
			}
		}
		s.maybeSnapshot(m)
		// The manager executed (a rejection still bumped its counters).
		s.publishEpoch(m)
		return a, nil
	})
	if err != nil {
		return manager.Outcome{}, err
	}
	if derr := s.waitDurable(ctx, a.seq); derr != nil {
		return manager.Outcome{}, derr
	}
	return a.res, a.err
}

// detach makes an arrival report safe to hand out of the loop: the manager
// keeps rewriting the live connection (level, backup) on every later event,
// so the caller is answered with a copy taken here, inside the loop, right
// after the event applied — the values replay of the journal holds at this
// record. Paths are replaced, never edited in place, so the copy is shallow.
func detach(out *manager.Outcome) {
	if out.Arrival == nil || out.Arrival.Conn == nil {
		return
	}
	rep, conn := *out.Arrival, *out.Arrival.Conn
	rep.Conn = &conn
	out.Arrival = &rep
}

// countFailure adds an executed link failure's outcome to the cumulative
// FailureOutcomes; rep is nil for every other event.
func (s *Server) countFailure(rep *manager.FailureReport) {
	if rep == nil {
		return
	}
	s.activated.Add(int64(len(rep.Activated)))
	s.dropped.Add(int64(len(rep.Dropped)))
	s.recovered.Add(int64(len(rep.Recovered)))
	s.backupsLost.Add(int64(len(rep.BackupsLost)))
}

// observe feeds an applied event to the live forecaster. Prepares are left
// out: the rigid connections they pin are outside the elastic population
// the chain models.
func (s *Server) observe(m *manager.Manager, ev journal.Event, res manager.Outcome, err error, alivePrior int) {
	if s.fc == nil || ev.Kind == journal.KindPrepare {
		return
	}
	switch {
	case errors.Is(err, manager.ErrRejected):
		s.fc.ObserveReject()
	case err == nil:
		s.fc.Observe(m, res, alivePrior)
	}
}
