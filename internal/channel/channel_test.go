package channel

import (
	"errors"
	"testing"

	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

func path(nodes ...topology.NodeID) routing.Path {
	links := make([]topology.LinkID, 0, len(nodes)-1)
	for i := 0; i < len(nodes)-1; i++ {
		links = append(links, topology.LinkID(int(nodes[i])*100+int(nodes[i+1])))
	}
	return routing.Path{Nodes: nodes, Links: links}
}

func newConn(t *testing.T) *Conn {
	t.Helper()
	c := New(1, 0, 2, qos.DefaultSpec(), path(0, 1, 2))
	if c.State() != StateActive {
		t.Fatalf("new conn state %v", c.State())
	}
	return c
}

func TestNewConnDefaults(t *testing.T) {
	c := newConn(t)
	if c.Level != 0 {
		t.Fatalf("level = %d, want 0 (minimum)", c.Level)
	}
	if c.Bandwidth() != 100 {
		t.Fatalf("bandwidth = %v, want Bmin", c.Bandwidth())
	}
	if c.HasBackup {
		t.Fatal("backup attached at birth")
	}
	if !c.Alive() {
		t.Fatal("not alive")
	}
}

func TestAttachDetachBackup(t *testing.T) {
	c := newConn(t)
	b := path(0, 3, 2)
	if err := c.AttachBackup(b, 0); err != nil {
		t.Fatal(err)
	}
	if !c.HasBackup || c.SharedWithPrimary != 0 {
		t.Fatal("attach did not register")
	}
	if err := c.AttachBackup(b, 0); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("double attach: %v", err)
	}
	if err := c.DetachBackup(); err != nil {
		t.Fatal(err)
	}
	if c.HasBackup {
		t.Fatal("detach did not clear")
	}
	if err := c.DetachBackup(); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("double detach: %v", err)
	}
}

func TestFailOver(t *testing.T) {
	c := newConn(t)
	backup := path(0, 3, 4, 2)
	if err := c.AttachBackup(backup, 0); err != nil {
		t.Fatal(err)
	}
	c.Level = 4 // pretend the primary had grown
	if err := c.FailOver(); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateFailedOver {
		t.Fatalf("state = %v", c.State())
	}
	if !c.Primary.Equal(backup) {
		t.Fatal("primary is not the old backup")
	}
	if c.HasBackup {
		t.Fatal("backup still attached after failover")
	}
	if c.Level != 0 {
		t.Fatalf("level = %d, activated backups run at minimum", c.Level)
	}
	if !c.Alive() {
		t.Fatal("failed-over connection should be alive")
	}
}

func TestFailOverWithoutBackup(t *testing.T) {
	c := newConn(t)
	if err := c.FailOver(); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("err = %v", err)
	}
}

func TestFailOverTwice(t *testing.T) {
	c := newConn(t)
	if err := c.AttachBackup(path(0, 3, 2), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailOver(); err != nil {
		t.Fatal(err)
	}
	// A second failover without a fresh backup is illegal...
	if err := c.FailOver(); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("second failover: %v", err)
	}
	// ...but legal once the connection has been re-protected.
	if err := c.AttachBackup(path(0, 5, 2), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailOver(); err != nil {
		t.Fatalf("re-protected failover: %v", err)
	}
	if c.State() != StateFailedOver {
		t.Fatalf("state = %v", c.State())
	}
}

func TestCloseAndDrop(t *testing.T) {
	c := newConn(t)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateClosed || c.Alive() {
		t.Fatal("close failed")
	}
	if err := c.Close(); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("double close: %v", err)
	}
	if err := c.Drop(); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("drop after close: %v", err)
	}

	d := newConn(t)
	if err := d.Drop(); err != nil {
		t.Fatal(err)
	}
	if d.State() != StateDropped || d.Alive() {
		t.Fatal("drop failed")
	}
}

func TestUsesLink(t *testing.T) {
	c := newConn(t)
	if c.BackupUsesLink(topology.LinkID(1)) {
		t.Fatal("BackupUsesLink without backup")
	}
	b := path(0, 3, 2)
	if err := c.AttachBackup(b, 0); err != nil {
		t.Fatal(err)
	}
	if !c.BackupUsesLink(b.Links[0]) {
		t.Fatal("BackupUsesLink false negative")
	}
}

// SharesLinkWith reports whether the two connections' primary routes share
// at least one link — the paper's "directly chained" relation that drives
// the Pf probability.
func (c *Conn) SharesLinkWith(o *Conn) bool {
	return c.Primary.SharedLinks(o.Primary) > 0
}

func TestSharesLinkWith(t *testing.T) {
	a := New(1, 0, 2, qos.DefaultSpec(), path(0, 1, 2))
	b := New(2, 1, 2, qos.DefaultSpec(), path(1, 2))
	c := New(3, 5, 6, qos.DefaultSpec(), path(5, 6))
	if !a.SharesLinkWith(b) {
		// a uses link 1->2 encoded as 102, b uses 102 as well.
		t.Fatal("shared link not detected")
	}
	if a.SharesLinkWith(c) {
		t.Fatal("phantom shared link")
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StateActive:     "active",
		StateFailedOver: "failed-over",
		StateClosed:     "closed",
		StateDropped:    "dropped",
		State(99):       "state(99)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
