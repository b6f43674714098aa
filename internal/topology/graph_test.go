package topology

import (
	"errors"
	"testing"
	"testing/quick"

	"drqos/internal/rng"
)

// ring builds a cycle of n nodes for test fixtures.
func ring(t *testing.T, n int) *Graph {
	t.Helper()
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddNode(Point{X: float64(i), Y: 0})
	}
	for i := 0; i < n; i++ {
		if _, err := g.AddLink(NodeID(i), NodeID((i+1)%n)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddNodeAndLink(t *testing.T) {
	g := NewGraph(2)
	a := g.AddNode(Point{0, 0})
	b := g.AddNode(Point{1, 0})
	id, err := g.AddLink(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumLinks() != 1 {
		t.Fatalf("counts %d/%d", g.NumNodes(), g.NumLinks())
	}
	if !g.HasLink(a, b) || !g.HasLink(b, a) {
		t.Fatal("link not symmetric")
	}
	l := g.Link(id)
	if l.Other(a) != b || l.Other(b) != a {
		t.Fatal("Other wrong")
	}
	if l.Other(NodeID(99)) != -1 {
		t.Fatal("Other on non-endpoint should be -1")
	}
}

func TestAddLinkRejectsSelfLoopAndDuplicate(t *testing.T) {
	g := NewGraph(2)
	a := g.AddNode(Point{})
	b := g.AddNode(Point{})
	if _, err := g.AddLink(a, a); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := g.AddLink(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(b, a); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := g.AddLink(a, NodeID(5)); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("bad node: %v", err)
	}
}

func TestLinkBetween(t *testing.T) {
	g := ring(t, 4)
	id, ok := g.LinkBetween(0, 1)
	if !ok {
		t.Fatal("missing link 0-1")
	}
	l := g.Link(id)
	if !(l.A == 0 && l.B == 1 || l.A == 1 && l.B == 0) {
		t.Fatalf("wrong link %+v", l)
	}
	if _, ok := g.LinkBetween(0, 2); ok {
		t.Fatal("phantom link 0-2")
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := ring(t, 5)
	if g.Degree(0) != 2 {
		t.Fatalf("degree = %d", g.Degree(0))
	}
	nbrs := g.Neighbors(0, nil)
	if len(nbrs) != 2 {
		t.Fatalf("neighbors = %v", nbrs)
	}
	links := g.IncidentLinks(0, nil)
	if len(links) != 2 {
		t.Fatalf("incident links = %v", links)
	}
	var visits int
	g.ForEachNeighbor(0, func(peer NodeID, link LinkID) { visits++ })
	if visits != 2 {
		t.Fatalf("ForEachNeighbor visits = %d", visits)
	}
}

func TestBFSDist(t *testing.T) {
	g := ring(t, 6)
	dist := g.BFSDist(0)
	want := []int{0, 1, 2, 3, 2, 1}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := NewGraph(4)
	for i := 0; i < 4; i++ {
		g.AddNode(Point{})
	}
	if g.Connected() {
		t.Fatal("edgeless graph of 4 reported connected")
	}
	if got := len(g.Components()); got != 4 {
		t.Fatalf("components = %d", got)
	}
	if _, err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(2, 3); err != nil {
		t.Fatal(err)
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d", len(comps))
	}
	if _, err := g.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("chain not connected")
	}
}

func TestEmptyAndSingletonConnected(t *testing.T) {
	g := NewGraph(0)
	if !g.Connected() {
		t.Fatal("empty graph should be vacuously connected")
	}
	g.AddNode(Point{})
	if !g.Connected() {
		t.Fatal("singleton should be connected")
	}
}

func TestMetricsRing(t *testing.T) {
	g := ring(t, 6)
	m := ComputeMetrics(g)
	if m.Nodes != 6 || m.Edges != 6 {
		t.Fatalf("metrics %+v", m)
	}
	if m.AvgDegree != 2 {
		t.Fatalf("avg degree %v", m.AvgDegree)
	}
	if m.Diameter != 3 {
		t.Fatalf("diameter %d", m.Diameter)
	}
	if !m.Connected {
		t.Fatal("ring reported disconnected")
	}
	// Ring of 6: distances from any node are 1,2,3,2,1 → avg 1.8.
	if m.AvgHops < 1.79 || m.AvgHops > 1.81 {
		t.Fatalf("avg hops %v", m.AvgHops)
	}
}

func TestMetricsDisconnected(t *testing.T) {
	g := NewGraph(3)
	g.AddNode(Point{})
	g.AddNode(Point{})
	g.AddNode(Point{})
	if _, err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	m := ComputeMetrics(g)
	if m.Connected {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestWaxmanDeterministic(t *testing.T) {
	cfg := WaxmanConfig{Nodes: 50, Alpha: 0.33, Beta: 0.15}
	g1, err := Waxman(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Waxman(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumLinks() != g2.NumLinks() {
		t.Fatalf("nondeterministic: %d vs %d links", g1.NumLinks(), g2.NumLinks())
	}
	for i, l := range g1.links {
		if g2.links[i] != l {
			t.Fatalf("link %d differs", i)
		}
	}
}

func TestWaxmanValidation(t *testing.T) {
	src := rng.New(1)
	cases := []WaxmanConfig{
		{Nodes: 1, Alpha: 0.3, Beta: 0.1},
		{Nodes: 10, Alpha: 0, Beta: 0.1},
		{Nodes: 10, Alpha: 1.5, Beta: 0.1},
		{Nodes: 10, Alpha: 0.3, Beta: 0},
	}
	for i, cfg := range cases {
		if _, err := Waxman(cfg, src); err == nil {
			t.Fatalf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestWaxmanEnsureConnected(t *testing.T) {
	// Sparse parameters frequently disconnect; Waxman must repair.
	cfg := WaxmanConfig{Nodes: 80, Alpha: 0.2, Beta: 0.05}
	for seed := uint64(0); seed < 10; seed++ {
		g, err := Waxman(cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			t.Fatalf("seed %d: not connected", seed)
		}
	}
}

func TestWaxmanEdgeCountScalesWithBeta(t *testing.T) {
	gSparse, err := Waxman(WaxmanConfig{Nodes: 60, Alpha: 0.33, Beta: 0.05}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	gDense, err := Waxman(WaxmanConfig{Nodes: 60, Alpha: 0.33, Beta: 5}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if gDense.NumLinks() <= gSparse.NumLinks() {
		t.Fatalf("beta scaling broken: %d <= %d", gDense.NumLinks(), gSparse.NumLinks())
	}
}

func TestCalibrateBetaHitsPaperInstance(t *testing.T) {
	// The paper's 100-node Waxman instance has 354 edges (avg degree 3.48).
	src := rng.New(2026)
	beta, err := CalibrateBeta(100, 0.33, 354, 3, src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Waxman(WaxmanConfig{Nodes: 100, Alpha: 0.33, Beta: beta}, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	edges := g.NumLinks()
	if edges < 280 || edges > 440 {
		t.Fatalf("calibrated instance has %d edges, want ~354", edges)
	}
}

func TestCalibrateBetaRejectsBadTrials(t *testing.T) {
	if _, err := CalibrateBeta(10, 0.3, 20, 0, rng.New(1)); err == nil {
		t.Fatal("trials=0 accepted")
	}
}

func TestTransitStubShape(t *testing.T) {
	g, err := TransitStub(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if !g.Connected() {
		t.Fatal("transit-stub not connected")
	}
	var transit, stub int
	for i := 0; i < g.NumNodes(); i++ {
		switch g.Tag(NodeID(i)) {
		case "transit":
			transit++
		case "stub":
			stub++
		default:
			t.Fatalf("node %d untagged", i)
		}
	}
	if transit != 4 || stub != 96 {
		t.Fatalf("transit/stub = %d/%d", transit, stub)
	}
}

func TestTransitStubDeterministic(t *testing.T) {
	g1, err := TransitStub(rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := TransitStub(rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumLinks() != g2.NumLinks() {
		t.Fatal("nondeterministic transit-stub")
	}
}

// Property: any generated Waxman graph is connected and
// link endpoints are always in range.
func TestQuickWaxmanWellFormed(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := Waxman(WaxmanConfig{
			Nodes: 30, Alpha: 0.3, Beta: 0.1,
		}, rng.New(seed))
		if err != nil {
			return false
		}
		if !g.Connected() {
			return false
		}
		for _, l := range g.Links() {
			if l.A < 0 || int(l.A) >= g.NumNodes() || l.B < 0 || int(l.B) >= g.NumNodes() || l.A == l.B {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDirLinkIDs(t *testing.T) {
	g := ring(t, 3)
	if g.NumDirLinks() != 2*g.NumLinks() {
		t.Fatalf("dir links = %d", g.NumDirLinks())
	}
	l := g.Link(0) // 0-1
	fwd := g.DirID(l.ID, l.A)
	rev := g.DirID(l.ID, l.B)
	if fwd == rev {
		t.Fatal("directions collide")
	}
	if fwd.Link() != l.ID || rev.Link() != l.ID {
		t.Fatal("Link() lost the physical id")
	}
	if !fwd.Forward() || rev.Forward() {
		t.Fatalf("orientation flags wrong: fwd=%v rev=%v", fwd.Forward(), rev.Forward())
	}
}

// TestArcsCarryTheirDirection: every arc in a node's list names the
// directed link DirID computes for leaving that node over its link, in the
// order ForEachNeighbor visits them.
func TestArcsCarryTheirDirection(t *testing.T) {
	g, err := Waxman(WaxmanConfig{Nodes: 60, Alpha: 0.6, Beta: 0.35}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for n := NodeID(0); int(n) < g.NumNodes(); n++ {
		arcs := g.Arcs(n)
		i := 0
		g.ForEachNeighbor(n, func(peer NodeID, link LinkID) {
			if a := arcs[i]; a.Peer != peer || a.Out.Link() != link || a.Out != g.DirID(link, n) {
				t.Fatalf("node %d arc %d is %+v, want peer %d out %d", n, i, a, peer, g.DirID(link, n))
			}
			i++
		})
		if i != len(arcs) {
			t.Fatalf("node %d: %d arcs, %d neighbours", n, len(arcs), i)
		}
	}
}

func TestDirIDPanicsOnNonEndpoint(t *testing.T) {
	g := ring(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	g.DirID(0, 2) // link 0 joins nodes 0-1; node 2 is not an endpoint
}

func TestWaxmanScaledDomain(t *testing.T) {
	// Constant-density scaling: 4× the nodes on a 2×2 domain with a fixed
	// decay scale gives roughly 4× the links of the unit-square instance,
	// not 16×.
	base, err := Waxman(WaxmanConfig{Nodes: 100, Alpha: 0.33, Beta: 0.1176}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Waxman(WaxmanConfig{
		Nodes: 400, Alpha: 0.33, Beta: 0.1176, ConstantDensity: true,
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(big.NumLinks()) / float64(base.NumLinks())
	if ratio < 2.5 || ratio > 7 {
		t.Fatalf("link growth %dx/%dx = %.1f, want ~4 (linear in nodes)", big.NumLinks(), base.NumLinks(), ratio)
	}
	if !big.Connected() {
		t.Fatal("scaled instance disconnected")
	}
}
