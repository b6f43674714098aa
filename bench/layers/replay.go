// Package layers is the traced half of drbench: it replays a script
// in-process, single-threaded, at successively deeper entry points of the
// admission plane — the manager, the server's actor loop, the HTTP handler,
// the shard coordinator, the replication hook — with a span around every
// call. Spans are recorded here, from the benchmark's own files; nothing
// inside the measured packages is instrumented.
package layers

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"drqos/bench/script"
	"drqos/bench/spans"
	"drqos/internal/topology"
)

// errRejected is a target's clean admission refusal; errGone its answer for
// a connection a fault already dropped. Both are expected outcomes.
var (
	errRejected = errors.New("rejected")
	errGone     = errors.New("gone")
)

// target is one entry point a script can be driven at.
type target interface {
	establish(ctx context.Context, src, dst topology.NodeID) (int64, error)
	terminate(ctx context.Context, id int64) error
	// fail returns the connections the failure dropped, when the entry
	// point reports them.
	fail(ctx context.Context, l topology.LinkID) ([]int64, error)
	repair(ctx context.Context, l topology.LinkID) error
	// read performs a stats read (id 0) or a point lookup.
	read(ctx context.Context, id int64) error
}

// cursor tells hooks that fire inside a layer (the replication ack wait,
// the 2PC phase calls) which operation and span they belong to. Replays are
// sequential, so one cursor per replay is enough; the hooks may run on
// another goroutine (an HTTP handler's), hence the atomics.
type cursor struct{ op, span atomic.Int64 }

// child records a span under the operation in flight.
func (c *cursor) child(rec *spans.Recorder, level, name string) int {
	return rec.Begin(level, name, int(c.op.Load()), int(c.span.Load()))
}

// replayer drives one target through a script, one operation at a time,
// with the same ledger discipline as the load clients: terminate the oldest
// owned connection, spend the slot as a read when the population is short.
// Every level therefore sees the same operations in the same state, which
// is what lets LayerSelf pair them.
type replayer struct {
	t     target
	level string
	rec   *spans.Recorder
	cur   *cursor // nil when the target has no hooks

	ledger  []int64
	dropped map[int64]bool
	debt    int
}

func newReplayer(t target, level string, rec *spans.Recorder) *replayer {
	return &replayer{t: t, level: level, rec: rec, dropped: map[int64]bool{}}
}

// populate builds the standing population through the target, unrecorded.
func (r *replayer) populate(ctx context.Context, warm [script.Clients][]script.Op, standing int) error {
	for c := 0; c < script.Clients; c++ {
		have := 0
		for _, op := range warm[c] {
			if have == standing/script.Clients {
				break
			}
			id, err := r.t.establish(ctx, topology.NodeID(op.Src), topology.NodeID(op.Dst))
			if errors.Is(err, errRejected) {
				continue
			}
			if err != nil {
				return fmt.Errorf("%s: populate: %w", r.level, err)
			}
			r.ledger = append(r.ledger, id)
			have++
		}
		if have < standing/script.Clients {
			return fmt.Errorf("%s: populate: only %d of %d connections admitted", r.level, have, standing/script.Clients)
		}
	}
	return nil
}

// run replays ops; operation i is span Op i.
func (r *replayer) run(ctx context.Context, ops []script.Op) error {
	for i, op := range ops {
		if err := r.step(ctx, i, op); err != nil {
			return fmt.Errorf("%s: op %d (%s): %w", r.level, i, op.Kind, err)
		}
	}
	return nil
}

func (r *replayer) step(ctx context.Context, i int, op script.Op) error {
	kind := op.Kind
	var id int64
	switch kind {
	case script.Terminate:
		switch {
		case r.debt > 0:
			r.debt--
			kind = script.ReadStats
		case len(r.ledger) == 0:
			kind = script.ReadStats
		default:
			id, r.ledger = r.ledger[0], r.ledger[1:]
			if r.dropped[id] {
				kind, id = script.ReadStats, 0
			}
		}
	case script.ReadPoint:
		if len(r.ledger) > 0 {
			id = r.ledger[len(r.ledger)-1]
		}
	}

	span := r.rec.Begin(r.level, kind.String(), i, 0)
	if r.cur != nil {
		r.cur.op.Store(int64(i))
		r.cur.span.Store(int64(span))
	}
	var err error
	switch kind {
	case script.Establish:
		var newID int64
		if newID, err = r.t.establish(ctx, topology.NodeID(op.Src), topology.NodeID(op.Dst)); err == nil {
			r.ledger = append(r.ledger, newID)
		} else if errors.Is(err, errRejected) {
			r.debt++
			err = nil
		}
	case script.Terminate:
		if err = r.t.terminate(ctx, id); errors.Is(err, errGone) {
			err = nil
		}
	case script.ReadStats:
		err = r.t.read(ctx, 0)
	case script.ReadPoint:
		if err = r.t.read(ctx, id); errors.Is(err, errGone) {
			err = nil
		}
	case script.Fail:
		var lost []int64
		lost, err = r.t.fail(ctx, topology.LinkID(op.Link))
		for _, d := range lost {
			r.dropped[d] = true
		}
	case script.Repair:
		err = r.t.repair(ctx, topology.LinkID(op.Link))
	}
	r.rec.End(span)
	if r.cur != nil {
		r.cur.span.Store(0)
	}
	return err
}

// interleave merges the clients' scripts into the one sequence a
// single-threaded replay executes, n operations long.
func interleave(run [script.Clients][]script.Op, n int) []script.Op {
	out := make([]script.Op, 0, n)
	for i := 0; len(out) < n && i < len(run[0]); i++ {
		for c := 0; c < script.Clients && len(out) < n; c++ {
			out = append(out, run[c][i])
		}
	}
	return out
}
