// The state machine behind the write path. A DR-connection's reservation
// moves only on journaled events, and every way an event reaches a manager —
// a live command (pipeline.go), journal replay at boot or recovery
// (Rebuild), a follower applying its primary's stream (ApplyReplicated) —
// goes through apply below, which hands the paper's four events to the
// manager's own transition (manager.Apply) and adds the two-phase-commit and
// replication kinds. "Replaying the event stream reproduces the state"
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

// apply is the transition function: the only code that switches on an
// event's kind to mutate a manager or a transaction table. It returns the
// manager's own error unwrapped — the live path hands it to the client,
// Replay decides which errors a faithful history may contain.
//
// The transaction table follows from the events alone: a prepare pins its
// connection under the transaction, a commit finalizes it, and a
// transaction, pending or committed, lives exactly as long as one of its
// connections — the terminate (an abort's journaled trace, or the release
// of a cross-shard connection) or link failure that takes the last of them
// drops the entry.
func apply(m *manager.Manager, txns *TxnTable, ev journal.Event) (manager.Outcome, error) {
	switch ev.Kind {
	case journal.KindPrepare:
		rep, err := m.EstablishFixed(topology.NodeID(ev.Src), topology.NodeID(ev.Dst), manager.EventSpec(ev), eventPath(ev))
		if err == nil {
			txns.pin(ev.Txn, ev.Peers, rep.Conn.ID)
		}
		return manager.Outcome{Arrival: rep}, err
	case journal.KindCommit:
		// Snapshots are refused while a transaction is pending, so a
		// commit's prepare is always on this side of the boundary; a missing
		// transaction means the journal is inconsistent.
		return manager.Outcome{}, txns.commit(ev.Txn)
	case journal.KindTerm:
		// Replication fence marker: no manager state changes. The server
		// adopts the term itself; the journal layer folds the highest one
		// into Recovered.Term.
		return manager.Outcome{}, nil
	}
	out, err := m.Apply(ev)
	if err != nil {
		return out, err
	}
	switch ev.Kind {
	case journal.KindTerminate:
		txns.unpin(channel.ConnID(ev.Conn))
	case journal.KindFailLink:
		for _, id := range out.Failure.Dropped {
			txns.unpin(id)
		}
	}
	return out, nil
}

// Replay applies one event that is already part of a journaled history: boot
// and recovery replay, a follower's stream. Deterministic refusals
// (admission rejection, invalid spec) are tolerated — they happened
// identically in the original run and bumped the same counters. Everything
// else must succeed: events are validated before they are journaled, so any
// other error means the journal and the state machine disagree.
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
	switch ev.Kind {
	case journal.KindEstablish, journal.KindPrepare:
		if !m.ValidNode(topology.NodeID(ev.Src)) || !m.ValidNode(topology.NodeID(ev.Dst)) {
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
		if int(ev.Link) < 0 || int(ev.Link) >= m.Graph().NumLinks() {
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

// prepareEvent is the journal record of a 2PC prepare: an establish's
// inputs plus the transaction and the shard-local path to pin.
func prepareEvent(txn uint64, peers uint32, src, dst topology.NodeID, spec qos.ElasticSpec, path routing.Path) journal.Event {
	ev := manager.EstablishEvent(src, dst, spec)
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
