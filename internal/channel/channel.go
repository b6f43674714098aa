// Package channel defines the dependable real-time (DR-) connection
// abstraction from §2.1: a unidirectional real-time channel pair consisting
// of one primary channel carrying traffic and one passive, (maximally)
// link-disjoint backup channel reserved for fast failure recovery [1].
package channel

import (
	"errors"
	"fmt"

	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// ConnID identifies a DR-connection for its lifetime. IDs are assigned
// densely by the network manager in establishment order.
type ConnID int64

// State is the lifecycle state of a DR-connection.
type State int

// DR-connection lifecycle: established connections are Active; when the
// primary's route fails, the backup is activated and the connection becomes
// FailedOver (running on what used to be the backup); Closed connections
// have released all resources. Dropped marks connections that lost their
// primary while having no usable backup.
const (
	StateActive State = iota + 1
	StateFailedOver
	StateClosed
	StateDropped
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateFailedOver:
		return "failed-over"
	case StateClosed:
		return "closed"
	case StateDropped:
		return "dropped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrBadTransition reports an illegal lifecycle transition.
var ErrBadTransition = errors.New("channel: illegal state transition")

// Conn is one DR-connection. All mutation goes through the network manager;
// the struct itself only guards its lifecycle.
type Conn struct {
	ID   ConnID
	Src  topology.NodeID
	Dst  topology.NodeID
	Spec qos.ElasticSpec

	// Primary is the route currently carrying traffic. After failover it
	// is the activated ex-backup route.
	Primary routing.Path
	// Backup is the passive protection route; empty after failover if no
	// replacement backup could be found.
	Backup routing.Path
	// HasBackup reports whether Backup is currently established.
	HasBackup bool
	// SharedWithPrimary is the number of links the backup shares with the
	// primary (0 when totally link-disjoint; >0 when only maximal
	// disjointness was achievable, footnote 1).
	SharedWithPrimary int

	// Level is the current bandwidth state index: reserved bandwidth is
	// Spec.Bandwidth(Level) (§3.2's S_i).
	Level int

	state State
}

// New returns an Active connection at its minimum bandwidth level. The
// caller (the manager) has already validated spec and routes.
func New(id ConnID, src, dst topology.NodeID, spec qos.ElasticSpec, primary routing.Path) *Conn {
	return &Conn{
		ID:      id,
		Src:     src,
		Dst:     dst,
		Spec:    spec,
		Primary: primary,
		state:   StateActive,
	}
}

// RestoreConn rebuilds an alive connection from durable state (a journal
// snapshot): same shape as New but with the level and the Active/FailedOver
// distinction preserved. Backups are re-attached separately via
// AttachBackup, exactly as the manager does during normal operation.
func RestoreConn(id ConnID, src, dst topology.NodeID, spec qos.ElasticSpec, primary routing.Path, level int, failedOver bool) *Conn {
	st := StateActive
	if failedOver {
		st = StateFailedOver
	}
	return &Conn{
		ID:      id,
		Src:     src,
		Dst:     dst,
		Spec:    spec,
		Primary: primary,
		Level:   level,
		state:   st,
	}
}

// State returns the lifecycle state.
func (c *Conn) State() State { return c.state }

// Alive reports whether the connection still holds resources.
func (c *Conn) Alive() bool { return c.state == StateActive || c.state == StateFailedOver }

// Bandwidth returns the currently reserved bandwidth of the primary.
func (c *Conn) Bandwidth() qos.Kbps { return c.Spec.Bandwidth(c.Level) }

// FailOver switches the connection onto its backup route after a primary
// failure: the backup becomes the primary at the minimum level (§3.1 —
// backups are activated with only their minimum reservation). A connection
// that already failed over and was re-protected with a fresh backup may
// fail over again.
func (c *Conn) FailOver() error {
	if !c.Alive() {
		return fmt.Errorf("%w: FailOver from %v", ErrBadTransition, c.state)
	}
	if !c.HasBackup {
		return fmt.Errorf("%w: FailOver without a backup", ErrBadTransition)
	}
	c.Primary = c.Backup
	c.Backup = routing.Path{}
	c.HasBackup = false
	c.SharedWithPrimary = 0
	c.Level = 0
	c.state = StateFailedOver
	return nil
}

// Drop marks the connection as having lost service (no usable backup when
// its primary failed, or its backup failed after failover).
func (c *Conn) Drop() error {
	if !c.Alive() {
		return fmt.Errorf("%w: Drop from %v", ErrBadTransition, c.state)
	}
	c.state = StateDropped
	return nil
}

// Close marks normal termination.
func (c *Conn) Close() error {
	if !c.Alive() {
		return fmt.Errorf("%w: Close from %v", ErrBadTransition, c.state)
	}
	c.state = StateClosed
	return nil
}

// AttachBackup installs a (replacement) backup route.
func (c *Conn) AttachBackup(p routing.Path, sharedWithPrimary int) error {
	if !c.Alive() {
		return fmt.Errorf("%w: AttachBackup on %v connection", ErrBadTransition, c.state)
	}
	if c.HasBackup {
		return fmt.Errorf("%w: backup already attached", ErrBadTransition)
	}
	c.Backup = p
	c.HasBackup = true
	c.SharedWithPrimary = sharedWithPrimary
	return nil
}

// DetachBackup removes the backup route (e.g. when the backup's own route
// failed and must be re-established elsewhere).
func (c *Conn) DetachBackup() error {
	if !c.HasBackup {
		return fmt.Errorf("%w: no backup attached", ErrBadTransition)
	}
	c.Backup = routing.Path{}
	c.HasBackup = false
	c.SharedWithPrimary = 0
	return nil
}

// BackupUsesLink reports whether the backup route traverses link l.
func (c *Conn) BackupUsesLink(l topology.LinkID) bool {
	if !c.HasBackup {
		return false
	}
	for _, bl := range c.Backup.Links {
		if bl == l {
			return true
		}
	}
	return false
}
