package manager

import (
	"errors"
	"testing"

	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// fixedSpec is a rigid 200 Kbps reservation (one level, never grows).
func fixedSpec() qos.ElasticSpec {
	return qos.ElasticSpec{Min: 200, Max: 200, Increment: 200, Utility: 1}
}

// TestEstablishFixedBasics: a fixed connection pins the given path, has no
// backup, sits at level 0 forever, counts in aggregates, and releases via
// the ordinary Terminate — even with RequireBackup set (fixed connections
// bypass it by design).
func TestEstablishFixedBasics(t *testing.T) {
	m := mustMgr(t, diamond(t), Config{Capacity: 10000, RequireBackup: true})
	path := routing.Path{Nodes: []topology.NodeID{0, 1, 2}, Links: []topology.LinkID{0, 1}}
	rep, err := m.EstablishFixed(0, 2, fixedSpec(), path)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Conn
	if c.HasBackup {
		t.Error("fixed connection has a backup")
	}
	if c.Level != 0 || c.Bandwidth() != 200 {
		t.Errorf("level=%d bw=%d, want 0/200", c.Level, c.Bandwidth())
	}
	if m.AliveCount() != 1 || m.requests != 1 {
		t.Errorf("alive=%d requests=%d, want 1/1", m.AliveCount(), m.requests)
	}
	checkMgr(t, m)

	// An elastic arrival on the shared links squeezes around it but the
	// fixed connection never moves off level 0.
	if _, err := m.Establish(0, 5, qos.DefaultSpec()); err != nil {
		t.Fatal(err)
	}
	if got := m.Conn(c.ID); got == nil || got.Level != 0 {
		t.Errorf("fixed conn level after elastic arrival: %+v", got)
	}
	checkMgr(t, m)

	if _, err := m.Terminate(c.ID); err != nil {
		t.Fatal(err)
	}
	if m.Conn(c.ID) != nil {
		t.Error("fixed conn alive after terminate")
	}
	checkMgr(t, m)
}

// TestEstablishFixedRejections: elastic specs, bad paths, mismatched
// endpoints and failed links are all rejected (and counted) without
// mutating state.
func TestEstablishFixedRejections(t *testing.T) {
	m := mustMgr(t, diamond(t), Config{Capacity: 1000})
	path := routing.Path{Nodes: []topology.NodeID{0, 1, 2}, Links: []topology.LinkID{0, 1}}

	if _, err := m.EstablishFixed(0, 2, qos.DefaultSpec(), path); !errors.Is(err, qos.ErrInvalidSpec) {
		t.Errorf("elastic spec: %v, want ErrInvalidSpec", err)
	}
	if _, err := m.EstablishFixed(0, 0, fixedSpec(), path); !errors.Is(err, ErrRejected) {
		t.Errorf("src==dst: %v, want ErrRejected", err)
	}
	if _, err := m.EstablishFixed(0, 5, fixedSpec(), path); !errors.Is(err, ErrRejected) {
		t.Errorf("path/endpoint mismatch: %v, want ErrRejected", err)
	}
	bad := routing.Path{Nodes: []topology.NodeID{0, 2}, Links: []topology.LinkID{0}}
	if _, err := m.EstablishFixed(0, 2, fixedSpec(), bad); !errors.Is(err, ErrRejected) {
		t.Errorf("invalid path: %v, want ErrRejected", err)
	}

	if _, err := m.FailLink(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EstablishFixed(0, 2, fixedSpec(), path); !errors.Is(err, ErrRejected) {
		t.Errorf("failed link on path: %v, want ErrRejected", err)
	}
	if _, err := m.RepairLink(0); err != nil {
		t.Fatal(err)
	}

	// Capacity: a second rigid reservation that does not fit is rejected
	// and rolls back cleanly.
	if _, err := m.EstablishFixed(0, 2, fixedSpec(), path); err != nil {
		t.Fatal(err)
	}
	big := qos.ElasticSpec{Min: 900, Max: 900, Increment: 900, Utility: 1}
	if _, err := m.EstablishFixed(0, 2, big, path); !errors.Is(err, ErrRejected) {
		t.Errorf("over capacity: %v, want ErrRejected", err)
	}
	if m.AliveCount() != 1 {
		t.Errorf("alive=%d after rejected over-capacity fixed, want 1", m.AliveCount())
	}
	checkMgr(t, m)
}

// TestEstablishFixedStateRoundTrip: fixed connections survive
// ExportState/Restore bit-identically — the property the sharded plane's
// recovery leans on.
func TestEstablishFixedStateRoundTrip(t *testing.T) {
	g := diamond(t)
	m := mustMgr(t, g, Config{Capacity: 10000})
	path := routing.Path{Nodes: []topology.NodeID{0, 3, 4, 5}, Links: []topology.LinkID{3, 4, 5}}
	if _, err := m.EstablishFixed(0, 5, fixedSpec(), path); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Establish(0, 5, qos.DefaultSpec()); err != nil {
		t.Fatal(err)
	}
	st := m.ExportState()
	m2, err := Restore(g, m.Config(), st)
	if err != nil {
		t.Fatal(err)
	}
	checkMgr(t, m2)
	f1 := st.Fingerprint()
	f2 := m2.ExportState().Fingerprint()
	if f1 != f2 {
		t.Fatalf("fingerprint changed across restore: %s != %s", f1, f2)
	}
}
