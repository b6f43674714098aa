package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/shard"
	"drqos/internal/topology"
)

// Liveness bounds — oracle clause (v) — each owed by the fault named.
const (
	promoteAfterKill = time.Second                       // Kill on a Pair: kill → standby promoted
	promoteAfterCut  = 2500 * time.Millisecond           // Cut on a Pair: cut → promoted, pre-promotion quiesce included
	fenceSlack       = 250 * time.Millisecond            // Cut on a Pair: last old-primary ack ≤ lease (sync timeout when only responses drop) + slack
	convergeWithin   = 5 * time.Second                   // Restart on a Pair: rejoined follower reaches the primary's tip and term
	doomedWithin     = 10*prepareTimeout + 2*time.Second // a 2PC that cannot commit fails inside its retry budget
	fastFailWithin   = prepareTimeout / 2                // Cut on Sharded: the next establish is refused without a prepare
	drainWithin      = 5 * time.Second                   // Heal on Sharded: the pending-resolution queue empties
	relieveWithin    = 30 * time.Second                  // Pressure: the latch clears and the queue drains after the burst
	wedgeAfter       = 2 * time.Minute                   // every episode: the watchdog
)

// within is the form every bound takes.
func (f Fault) within(what string, took, bound time.Duration) error {
	if f.tight {
		bound = 0
	}
	if took > bound {
		return fmt.Errorf("oracle (v): %s took %s, bound %s", what, took.Round(time.Microsecond), bound)
	}
	return nil
}

// await polls ok every 2ms for up to limit.
func await(limit time.Duration, ok func() bool) bool {
	for deadline := time.Now().Add(limit); !ok(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// inject fires one fault and has the oracle judge what is left — unless
// nothing is: a fault that leaves the acting primary down has its damage
// judged when the Restart that follows brings the node back.
func (w *world) inject(f Fault) error {
	w.faultMu.Lock()
	defer w.faultMu.Unlock()
	n, _ := w.primary()
	var err error
	switch f.Kind {
	case Kill, LoseUnackedWindow:
		err = w.kill(f)
	case TornTail:
		err = w.tearTail(f.N)
	case Restart:
		err = w.restart()
	case Cut:
		err = w.cut(f)
	case Heal:
		err = w.heal()
	case KillShardAfterPrepare:
		err = w.killShard(f)
	case ShutdownMidBurst:
		w.over.Store(true)
		n.halt(false)
	case Corrupt:
		w.injected = true
		err = f.Hook(n.dir, n.srv)
	}
	if err != nil {
		return fmt.Errorf("%s at %d: %w", f.Kind, f.At, err)
	}
	if n, _ = w.primary(); n.down.Load() && w.coord == nil {
		return nil
	}
	return w.judge(f.Kind.String())
}

// capture remembers what the plane's journals hold. It is taken where the
// script is sequential and quiescent, so every record is acknowledged:
// whatever survives the fault must still hold them, bit for bit.
func (w *world) capture() (err error) {
	for _, n := range w.nodes {
		if w.history[n.dir], err = journal.Read(n.dir); err != nil {
			return fmt.Errorf("capturing %s: %w", n.name, err)
		}
	}
	return nil
}

// kill abandons the acting primary. A Pair's standby must then promote; on
// a Durable plane the acknowledged prefix is captured first and, for
// LoseUnackedWindow, the crash lands inside the group-commit window.
func (w *world) kill(f Fault) error {
	n, _ := w.primary()
	if w.ep.Plane == Pair {
		t0 := time.Now()
		n.halt(true)
		return w.promote(f, t0, promoteAfterKill)
	}
	if err := w.capture(); err != nil {
		return err
	}
	if f.Kind == Kill {
		n.halt(true)
		return nil
	}
	// Every record so far was acknowledged (the script is sequential), so
	// the acknowledged prefix ends here. N establishes are framed with
	// AppendAsync — nobody ever waited for their durability — and the power
	// dies before the committer's fsync: the segment's space past the
	// acknowledged end reads back as the zeros it was preallocated with,
	// which loses the batch whatever the committer managed first. They come
	// from their own rng stream, so the acknowledged history is the same
	// with or without the window.
	seg, acked, err := activeSegment(n.dir)
	if err != nil {
		return err
	}
	next := w.anyPair(rng.New(w.seed ^ 0x9e3779b97f4a7c15))
	for i := 0; i < f.N; i++ {
		if _, err := n.srv.Journal().AppendAsync(next()); err != nil {
			return fmt.Errorf("unacked window append: %w", err)
		}
	}
	n.halt(true)
	fi, err := os.Stat(seg)
	if err != nil {
		return err
	}
	return writeAt(seg, make([]byte, fi.Size()-acked), acked)
}

// tearTail writes a partial frame at the end of the killed node's records,
// over the preallocated zeros: a length prefix far beyond the n bytes that
// follow, the classic torn record.
func (w *world) tearTail(n int) error {
	dead, _ := w.primary()
	seg, end, err := activeSegment(dead.dir)
	if err != nil {
		return err
	}
	w.torn = true
	return writeAt(seg, bytes.Repeat([]byte{0xff}, n), end)
}

// writeAt overwrites path's bytes from off with b.
func writeAt(path string, b []byte, off int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.WriteAt(b, off); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recovered is the boot-time half of a restart's verdict: the torn tail was
// seen and discarded, and what was recovered is exactly what was
// acknowledged — no record lost, no unacked append resurrected.
func (w *world) recovered(n *node, rec *journal.Recovered) error {
	if w.torn && rec.TornBytes == 0 {
		return errors.New("oracle (i): a torn tail was injected but not detected")
	}
	w.torn = false
	if h := w.history[n.dir]; h != nil && rec.LastSeq != h.LastSeq {
		return fmt.Errorf("oracle (i): recovered through seq %d, acknowledged through %d", rec.LastSeq, h.LastSeq)
	}
	return nil
}

// restart reboots what was killed. A Durable node must come back holding
// exactly the acknowledged prefix (recovered, via boot). A Pair's ex-primary
// comes back as a follower: it must refuse to originate mutations, and the
// oracle then waits for it to converge on the new primary. A Sharded plane
// restarts whole — boot decides and delivers what the kill left in
// flight — and must admit cross-shard traffic again.
func (w *world) restart() error {
	ctx := context.Background()
	if w.ep.Plane == Sharded {
		if err := w.coord.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := w.boot(0, ""); err != nil {
			return err
		}
		return w.serve(nil, 0, w.crossPair)
	}
	dead, _ := w.primary()
	follow := ""
	if w.ep.Plane == Pair {
		dead, follow = w.other(), dead.http.URL
	}
	if !dead.down.Load() {
		return errors.New("nothing was killed")
	}
	if err := w.boot(dead.idx, follow); err != nil || follow == "" {
		return err
	}
	if _, err := w.other().srv.Establish(ctx, 0, 1, elastic); !errors.Is(err, server.ErrNotPrimary) {
		return fmt.Errorf("oracle (iv): rejoined ex-primary answered a mutation with %v, want ErrNotPrimary", err)
	}
	return nil
}

// promote waits out a Pair's failover: the standby must take over inside
// budget under a bumped term, and serve. Its first acknowledgment is taken
// while the other client still hammers the old primary, so a fence that
// re-opens shows up in the ledger as an old-reign ack after a new-reign one.
func (w *world) promote(f Fault, t0 time.Time, budget time.Duration) error {
	old, reign := w.primary()
	sb := w.other()
	if !await(budget+2*time.Second, func() bool { return sb.srv.Role() == "primary" }) {
		return fmt.Errorf("oracle (v): standby still %q %s after the %s", sb.srv.Role(), time.Since(t0).Round(time.Millisecond), f.Kind)
	}
	if err := f.within("promotion", time.Since(t0), budget); err != nil {
		return err
	}
	if sb.srv.Term() <= old.srv.Term() {
		return fmt.Errorf("oracle (iv): promotion did not bump the term (%d)", sb.srv.Term())
	}
	if err := w.serve(sb, reign+1, w.anyPair(rng.New(w.seed^uint64(reign+1)<<32))); err != nil {
		return err
	}
	w.mu.Lock()
	w.acting, w.reign = 1-w.acting, reign+1
	w.mu.Unlock()
	return nil
}

// anyPair draws establishes between random node pairs.
func (w *world) anyPair(src *rng.Source) func() journal.Event {
	return func() journal.Event { return nextEvent(src, population{nodes: w.g.NumNodes()}) }
}

// serve proves a plane takes work after a fault: establishes from next
// against n (or the coordinator) until one is acknowledged and entered in
// the ledger. Admission may reject individual pairs on a loaded topology.
func (w *world) serve(n *node, reign int, next func() journal.Event) error {
	var err error
	for i := 0; i < 200; i++ {
		ev := next()
		var t told
		if t, err = w.establish(context.Background(), n, ev); err == nil {
			w.led.told(ev, t, reign)
			return nil
		}
		if !refused(err) {
			break
		}
	}
	return fmt.Errorf("oracle (v): the plane does not serve after the fault: %w", err)
}

// cut partitions the network. On a Pair the standby's open stream stalls
// both ways, and the streams it re-opens do not get through — or, with
// ResponseDrop, arrive and renew the lease while their answers are lost.
// The old primary must fence itself within the lease (within the sync
// timeout in the second case, never falling back to async) and the standby
// must promote.
func (w *world) cut(f Fault) error {
	if w.ep.Plane == Sharded {
		return w.cutShard(f)
	}
	old, reign := w.primary()
	w.net.SetRule(w.other().name, old.name, f.Shape)
	t0 := time.Now()
	if err := w.promote(f, t0, promoteAfterCut); err != nil {
		return err
	}
	fence := lease
	if f.Shape.DropRequest == 0 {
		fence = syncTimeout
	}
	w.led.mu.Lock()
	last := w.led.last[reign]
	w.led.mu.Unlock()
	if !last.After(t0) {
		return nil
	}
	return f.within("fencing the old primary", last.Sub(t0), fence+fenceSlack)
}

// crossPair is the establish that is guaranteed to cross shards: two stub
// nodes owned by different shards, so the 2PC always has at least two
// participants and routing — hence their order — is fixed.
func (w *world) crossPair() journal.Event {
	owner := w.coord.Plan().NodeShard
	src, dst := -1, -1
	for n := 0; n < len(owner) && dst == -1; n++ {
		if w.g.Tag(topology.NodeID(n)) != "stub" {
			continue
		}
		if src == -1 {
			src = n
		} else if owner[n] != owner[src] {
			dst = n
		}
	}
	return manager.EstablishEvent(topology.NodeID(src), topology.NodeID(dst), elastic)
}

// doomed drives the cross-shard establish that cannot commit and holds it to
// its retry budget.
func (w *world) doomed(f Fault) error {
	t0 := time.Now()
	if _, err := w.establish(context.Background(), nil, w.crossPair()); err == nil {
		return errors.New("oracle (v): the doomed cross-shard establish succeeded")
	}
	return f.within("failing the doomed establish", time.Since(t0), doomedWithin)
}

// cutShard partitions the last participant of the cross pair's 2PC. With
// RequestDrop it never hears the prepare; with ResponseDrop it applies every
// retried prepare — the idempotent-retry case — but its answers are lost.
// Phase timeouts, capped retries and presumed abort must fail the establish
// inside its budget and queue the unreachable participant's abort; while the
// shard is suspected the next establish fast-fails instead of burning
// another prepare timeout.
func (w *world) cutShard(f Fault) error {
	ctx := context.Background()
	c := w.coord
	// Probe the route once to learn the participant order, then tear the
	// probe down.
	var parts []int
	c.SetTestHookAfterPrepare(func(s int, _ uint64) error { parts = append(parts, s); return nil })
	probe, err := w.establish(ctx, nil, w.crossPair())
	c.SetTestHookAfterPrepare(nil)
	if err == nil {
		err = c.Terminate(ctx, probe.id)
	}
	if err != nil || len(parts) < 2 {
		return fmt.Errorf("probing the cross route (participants %v): %v", parts, err)
	}
	w.net.SetRule("coord", w.nodes[parts[len(parts)-1]].name, f.Shape)
	if err := w.doomed(f); err != nil {
		return err
	}
	if c.CrossTimeouts() == 0 || c.AbortReasons()["timeout"] == 0 || c.PendingResolutions() == 0 {
		return fmt.Errorf("oracle (v): the unreachable participant left no trace: %d timeouts, aborts %v, %d pending resolution",
			c.CrossTimeouts(), c.AbortReasons(), c.PendingResolutions())
	}
	t0 := time.Now()
	if _, err = w.establish(ctx, nil, w.crossPair()); !errors.Is(err, shard.ErrShardUnavailable) {
		return fmt.Errorf("oracle (v): establish during suspicion answered %v, want ErrShardUnavailable", err)
	}
	return f.within("refusing a suspected shard", time.Since(t0), fastFailWithin)
}

// heal clears the network. A Pair's ex-primary is streamed from by nobody, so its
// lease stays lapsed and it must keep refusing — forever, not just for the
// partition. A Sharded plane must drain its pending resolutions and take
// cross-shard work again.
func (w *world) heal() error {
	ctx := context.Background()
	w.net.Heal()
	if w.ep.Plane == Sharded {
		if !await(drainWithin, func() bool { w.coord.ResolvePending(ctx); return w.coord.PendingResolutions() == 0 }) {
			return fmt.Errorf("oracle (v): %d transactions still pending resolution %s after the heal", w.coord.PendingResolutions(), drainWithin)
		}
		return w.serve(nil, 0, w.crossPair)
	}
	time.Sleep(2 * lease)
	if _, err := w.other().srv.Establish(ctx, 0, 1, elastic); !errors.Is(err, server.ErrFenced) {
		return fmt.Errorf("oracle (iv): healed ex-primary answered a mutation with %v, want ErrFenced", err)
	}
	return nil
}

// killShard shuts the first participant of a cross-shard establish down
// right after its prepare is durable. The establish must fail; the oracle
// then finds the survivors unchanged, and the Restart that follows must
// replay every shard — victim included — to its acknowledged prefix with the
// orphaned prepare aborted.
func (w *world) killShard(f Fault) error {
	if err := w.capture(); err != nil {
		return err
	}
	killed := false
	w.coord.SetTestHookAfterPrepare(func(s int, _ uint64) error {
		killed = true
		w.nodes[s].halt(false)
		return fmt.Errorf("chaos: shard %d killed mid-2PC", s)
	})
	err := w.doomed(f)
	w.coord.SetTestHookAfterPrepare(nil)
	if err == nil && !killed {
		err = errors.New("the kill hook never fired")
	}
	return err
}

// relieved is what a Pressure episode owes once the burst is over: the
// pressure was real (deadlines died, commands were shed unexecuted, the
// latch engaged), the freeing lane and the forecaster stayed live through
// it, and the server recovers on its own — latch cleared, queue drained.
func (w *world) relieved() error {
	srv := w.nodes[0].srv
	if !await(relieveWithin, func() bool { return !srv.Overloaded() && srv.QueueDepth() == 0 }) {
		return fmt.Errorf("oracle (v): overload never cleared: overloaded=%v queue=%d", srv.Overloaded(), srv.QueueDepth())
	}
	shedExpired, shedCanceled := srv.Sheds()
	solves, _, _ := srv.Forecaster().Status()
	switch {
	case w.expired.Load() == 0:
		return errors.New("oracle (v): no establish deadline ever expired — the episode applied no pressure")
	case shedExpired+shedCanceled == 0:
		return errors.New("oracle (v): expired callers but zero shed commands — the loop executed work nobody waited for")
	case srv.OverloadEpisodes() == 0:
		return errors.New("oracle (v): a sustained backlog never latched the overloaded state")
	case w.freed.Load() == 0:
		return errors.New("oracle (v): no termination completed — the freeing lane starved")
	case w.forecasts.Load() == 0 || solves == 0:
		return fmt.Errorf("oracle (v): forecast control plane stalled under pressure: %d reads, %d solves", w.forecasts.Load(), solves)
	}
	return nil
}
