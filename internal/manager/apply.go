package manager

import (
	"fmt"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/qos"
	"drqos/internal/topology"
)

// Outcome is what applying one event produced; only the report matching the
// event's kind is set.
type Outcome struct {
	Arrival     *ArrivalReport     // establish (and a 2PC prepare, in the server)
	Termination *TerminationReport // terminate
	Failure     *FailureReport     // fail link
	Restored    int                // repair link: backups re-established
}

// Apply is the transition for the paper's four events: it steps the manager
// through an establish, terminate, link failure or link repair exactly as a
// journal records it. Every path that moves a DR-connection's reservation —
// the daemon's write path and journal replay, the simulator, the chaos
// traces — goes through here, so replaying an event stream reproduces the
// state by construction. Apply returns the operation's own error unwrapped:
// the daemon hands it to the client, replay decides which errors a faithful
// history may contain. The two-phase-commit and replication kinds are the
// server's, not the manager's, and are refused.
func (m *Manager) Apply(ev journal.Event) (Outcome, error) {
	switch ev.Kind {
	case journal.KindEstablish:
		src, dst := topology.NodeID(ev.Src), topology.NodeID(ev.Dst)
		if !m.ValidNode(src) || !m.ValidNode(dst) {
			return Outcome{}, fmt.Errorf("establish endpoints %d→%d out of range — journal from a different topology?", ev.Src, ev.Dst)
		}
		rep, err := m.Establish(src, dst, EventSpec(ev))
		return Outcome{Arrival: rep}, err
	case journal.KindTerminate:
		rep, err := m.Terminate(channel.ConnID(ev.Conn))
		return Outcome{Termination: rep}, err
	case journal.KindFailLink:
		rep, err := m.FailLink(topology.LinkID(ev.Link))
		return Outcome{Failure: rep}, err
	case journal.KindRepairLink:
		restored, err := m.RepairLink(topology.LinkID(ev.Link))
		return Outcome{Restored: restored}, err
	default:
		return Outcome{}, fmt.Errorf("manager: %s is not a manager event", ev.Kind)
	}
}

// ValidNode reports whether n is a node of the manager's topology.
func (m *Manager) ValidNode(n topology.NodeID) bool {
	return int(n) >= 0 && int(n) < m.g.NumNodes()
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

// TerminateEvent is the journal record of a termination.
func TerminateEvent(id channel.ConnID) journal.Event {
	return journal.Event{Kind: journal.KindTerminate, Conn: int64(id)}
}

// LinkEvent is the journal record of a link failure or repair.
func LinkEvent(kind journal.Kind, l topology.LinkID) journal.Event {
	return journal.Event{Kind: kind, Link: id32(int(l))}
}

// EventSpec is the elastic spec an establish or prepare record carries.
func EventSpec(ev journal.Event) qos.ElasticSpec {
	return qos.ElasticSpec{
		Min:       qos.Kbps(ev.MinKbps),
		Max:       qos.Kbps(ev.MaxKbps),
		Increment: qos.Kbps(ev.IncKbps),
		Utility:   ev.Utility,
	}
}
