// The state machine behind the write path. A DR-connection's reservation
// moves only on journaled events, and every way an event reaches a manager —
// a live command (pipeline.go), journal replay at boot or recovery
// (RebuildWithTxns), a follower applying its primary's stream
// (ApplyReplicated), the shard coordinator's boot reconciliation — goes
// through apply below. "Replaying the event stream reproduces the state"
// therefore holds by construction: there is no second implementation of any
// transition for the paths to disagree on.
package server

import (
	"errors"
	"fmt"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// result is what applying one event produced; only the field matching the
// event's kind is set.
type result struct {
	arrival     *manager.ArrivalReport     // establish, prepare
	termination *manager.TerminationReport // terminate
	failure     *manager.FailureReport     // fail link
	restored    int                        // repair link
}

// apply is the transition function: the only code that switches on an
// event's kind to mutate a manager or a transaction table. It returns the
// manager's own error unwrapped — the live path hands it to the client,
// Replay decides which errors a faithful history may contain.
//
// The transaction table follows from the events alone: a prepare pins its
// connection under the transaction, a commit finalizes it, and a pending
// transaction lives exactly as long as it pins something — the terminate
// (an abort's journaled trace) or link failure that takes its last pinned
// connection drops the entry.
func apply(m *manager.Manager, txns *TxnTable, ev journal.Event) (result, error) {
	switch ev.Kind {
	case journal.KindEstablish:
		src, dst := topology.NodeID(ev.Src), topology.NodeID(ev.Dst)
		if !validNode(m.Graph(), src) || !validNode(m.Graph(), dst) {
			return result{}, fmt.Errorf("establish endpoints %d→%d out of range — journal from a different topology?", ev.Src, ev.Dst)
		}
		rep, err := m.Establish(src, dst, eventSpec(ev))
		return result{arrival: rep}, err
	case journal.KindTerminate:
		rep, err := m.Terminate(channel.ConnID(ev.Conn))
		if err == nil {
			txns.unpin(channel.ConnID(ev.Conn))
		}
		return result{termination: rep}, err
	case journal.KindFailLink:
		rep, err := m.FailLink(topology.LinkID(ev.Link))
		if err == nil {
			for _, id := range rep.Dropped {
				txns.unpin(id)
			}
		}
		return result{failure: rep}, err
	case journal.KindRepairLink:
		restored, err := m.RepairLink(topology.LinkID(ev.Link))
		return result{restored: restored}, err
	case journal.KindPrepare:
		rep, err := m.EstablishFixed(topology.NodeID(ev.Src), topology.NodeID(ev.Dst), eventSpec(ev), eventPath(ev))
		if err == nil {
			txns.pin(ev.Txn, ev.Peers, rep.Conn.ID)
		}
		return result{arrival: rep}, err
	case journal.KindCommit:
		// Snapshots are refused while a transaction is pending, so a
		// commit's prepare is always on this side of the boundary; a missing
		// transaction means the journal is inconsistent.
		return result{}, txns.commit(ev.Txn)
	case journal.KindTerm:
		// Replication fence marker: no manager state changes. The server
		// adopts the term itself; the journal layer folds the highest one
		// into Recovered.Term.
		return result{}, nil
	default:
		return result{}, fmt.Errorf("unknown event kind %d", uint8(ev.Kind))
	}
}

// Replay applies one event that is already part of a journaled history:
// boot and recovery replay, a follower's stream, the shard coordinator's
// reconciliation records. Deterministic refusals (admission rejection,
// invalid spec) are tolerated — they happened identically in the original
// run and bumped the same counters. Everything else must succeed: events
// are validated before they are journaled, so any other error means the
// journal and the state machine disagree.
func Replay(m *manager.Manager, txns *TxnTable, ev journal.Event) error {
	_, err := apply(m, txns, ev)
	if err != nil && !errors.Is(err, manager.ErrRejected) && !errors.Is(err, qos.ErrInvalidSpec) {
		return fmt.Errorf("replay seq %d (%s): %w", ev.Seq, ev.Kind, err)
	}
	return nil
}

// Validate is the pre-journal check: it reports why ev cannot apply to the
// current state (ErrNotFound, ErrConflict) without touching anything, so
// the write path refuses the command before it reaches the journal and
// every journaled record is strictly replayable. txns may be nil for the
// four paper events.
func Validate(m *manager.Manager, txns *TxnTable, ev journal.Event) error {
	g := m.Graph()
	switch ev.Kind {
	case journal.KindEstablish, journal.KindPrepare:
		if !validNode(g, topology.NodeID(ev.Src)) || !validNode(g, topology.NodeID(ev.Dst)) {
			return fmt.Errorf("%w: node out of range", ErrNotFound)
		}
		if ev.Kind == journal.KindPrepare {
			if tx := txns.byID[ev.Txn]; tx != nil && tx.Committed {
				return fmt.Errorf("%w: txn %d already committed", ErrConflict, ev.Txn)
			}
		}
	case journal.KindTerminate:
		if c := m.Conn(channel.ConnID(ev.Conn)); c == nil || !c.Alive() {
			return ErrNotFound
		}
	case journal.KindFailLink, journal.KindRepairLink:
		if int(ev.Link) < 0 || int(ev.Link) >= g.NumLinks() {
			return ErrNotFound
		}
		if m.Network().Failed(topology.LinkID(ev.Link)) == (ev.Kind == journal.KindFailLink) {
			return ErrConflict
		}
	case journal.KindCommit:
		tx := txns.byID[ev.Txn]
		if tx == nil {
			return fmt.Errorf("%w: txn %d", ErrNotFound, ev.Txn)
		}
		if tx.Committed {
			return fmt.Errorf("%w: txn %d already committed", ErrConflict, ev.Txn)
		}
	}
	return nil
}

func validNode(g *topology.Graph, n topology.NodeID) bool {
	return int(n) >= 0 && int(n) < g.NumNodes()
}

// id32 narrows a caller-supplied ID to the journal's 32-bit field. A value
// that does not fit becomes -1 — in no topology — so validation refuses it
// instead of acting on whatever it truncates to.
func id32(v int) int32 {
	if v != int(int32(v)) {
		return -1
	}
	return int32(v)
}

// EstablishEvent is the journal record of an elastic establish.
func EstablishEvent(src, dst topology.NodeID, spec qos.ElasticSpec) journal.Event {
	return journal.Event{
		Kind: journal.KindEstablish,
		Src:  id32(int(src)), Dst: id32(int(dst)),
		MinKbps: int64(spec.Min), MaxKbps: int64(spec.Max),
		IncKbps: int64(spec.Increment), Utility: spec.Utility,
	}
}

// prepareEvent is the journal record of a 2PC prepare: an establish's
// inputs plus the transaction and the shard-local path to pin.
func prepareEvent(txn uint64, peers uint32, src, dst topology.NodeID, spec qos.ElasticSpec, path routing.Path) journal.Event {
	ev := EstablishEvent(src, dst, spec)
	ev.Kind, ev.Txn, ev.Peers = journal.KindPrepare, txn, peers
	ev.PathNodes = make([]int32, len(path.Nodes))
	for i, n := range path.Nodes {
		ev.PathNodes[i] = int32(n)
	}
	ev.PathLinks = make([]int32, len(path.Links))
	for i, l := range path.Links {
		ev.PathLinks[i] = int32(l)
	}
	return ev
}

// linkEvent is the journal record of a link failure or repair.
func linkEvent(kind journal.Kind, l topology.LinkID) journal.Event {
	return journal.Event{Kind: kind, Link: id32(int(l))}
}

func terminateEvent(id channel.ConnID) journal.Event {
	return journal.Event{Kind: journal.KindTerminate, Conn: int64(id)}
}

func eventSpec(ev journal.Event) qos.ElasticSpec {
	return qos.ElasticSpec{
		Min:       qos.Kbps(ev.MinKbps),
		Max:       qos.Kbps(ev.MaxKbps),
		Increment: qos.Kbps(ev.IncKbps),
		Utility:   ev.Utility,
	}
}

func eventPath(ev journal.Event) routing.Path {
	path := routing.Path{
		Nodes: make([]topology.NodeID, len(ev.PathNodes)),
		Links: make([]topology.LinkID, len(ev.PathLinks)),
	}
	for i, n := range ev.PathNodes {
		path.Nodes[i] = topology.NodeID(n)
	}
	for i, l := range ev.PathLinks {
		path.Links[i] = topology.LinkID(l)
	}
	return path
}
