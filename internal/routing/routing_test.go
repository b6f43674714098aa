package routing

import (
	"errors"
	"testing"
	"testing/quick"

	"drqos/internal/rng"
	"drqos/internal/topology"
)

// grid builds a w×h grid graph; node (x,y) has ID y*w+x.
func grid(t *testing.T, w, h int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.AddNode(topology.Point{X: float64(x), Y: float64(y)})
		}
	}
	id := func(x, y int) topology.NodeID { return topology.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				if _, err := g.AddLink(id(x, y), id(x+1, y)); err != nil {
					t.Fatal(err)
				}
			}
			if y+1 < h {
				if _, err := g.AddLink(id(x, y), id(x, y+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

// line builds a path graph 0-1-2-...-(n-1).
func line(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddNode(topology.Point{})
	}
	for i := 0; i < n-1; i++ {
		if _, err := g.AddLink(topology.NodeID(i), topology.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestShortestHopsGrid(t *testing.T) {
	g := grid(t, 4, 4)
	p, err := ShortestHops(g, 0, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 6 {
		t.Fatalf("hops = %d, want 6", p.Hops())
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.Src() != 0 || p.Dst() != 15 {
		t.Fatalf("endpoints %d->%d", p.Src(), p.Dst())
	}
}

func TestShortestHopsSameNode(t *testing.T) {
	g := grid(t, 2, 2)
	p, err := ShortestHops(g, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 0 || p.Src() != 1 {
		t.Fatalf("self path: %v", p)
	}
}

func TestShortestHopsNoRoute(t *testing.T) {
	g := topology.NewGraph(2)
	g.AddNode(topology.Point{})
	g.AddNode(topology.Point{})
	_, err := ShortestHops(g, 0, 1, nil)
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestShortestHopsFilter(t *testing.T) {
	g := line(t, 3)
	blocked := topology.LinkID(1) // the line's links are added in order: 1 joins 1 and 2
	_, err := ShortestHops(g, 0, 2, func(l topology.LinkID) bool { return l != blocked })
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("filter ignored: %v", err)
	}
}

func TestShortestHopsBadEndpoint(t *testing.T) {
	g := line(t, 2)
	if _, err := ShortestHops(g, 0, 9, nil); !errors.Is(err, topology.ErrNoSuchNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestDijkstraPrefersCheapRoute(t *testing.T) {
	// Triangle: 0-1 expensive direct, 0-2-1 cheap.
	g := topology.NewGraph(3)
	for i := 0; i < 3; i++ {
		g.AddNode(topology.Point{})
	}
	direct, _ := g.AddLink(0, 1)
	l02, _ := g.AddLink(0, 2)
	l21, _ := g.AddLink(2, 1)
	w := func(l topology.LinkID) float64 {
		if l == direct {
			return 10
		}
		return 1
	}
	p, err := Dijkstra(g, 0, 1, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 2 || p.Links[0] != l02 || p.Links[1] != l21 {
		t.Fatalf("path = %v", p)
	}
}

func TestDijkstraNilWeightIsHops(t *testing.T) {
	g := grid(t, 3, 3)
	p, err := Dijkstra(g, 0, 8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 4 {
		t.Fatalf("hops = %d", p.Hops())
	}
}

func TestPathHelpers(t *testing.T) {
	g := line(t, 4)
	p, err := ShortestHops(g, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := p.Clone()
	q.Nodes[0] = 99 // must not affect p
	if p.Nodes[0] != 0 {
		t.Fatal("Clone is shallow")
	}
	if p.String() != "0 -> 1 -> 2 -> 3" {
		t.Fatalf("String = %q", p.String())
	}
	if !p.Equal(p.Clone()) {
		t.Fatal("Equal on identical failed")
	}
	sub, err := ShortestHops(g, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Equal(sub) {
		t.Fatal("Equal on different lengths")
	}
	if got := p.SharedLinks(sub); got != 2 {
		t.Fatalf("SharedLinks = %d", got)
	}
	if p.LinkDisjoint(sub) {
		t.Fatal("LinkDisjoint false positive")
	}
}

func TestPathValidateCatchesCorruption(t *testing.T) {
	g := line(t, 3)
	p, _ := ShortestHops(g, 0, 2, nil)
	bad := p.Clone()
	bad.Links[0], bad.Links[1] = bad.Links[1], bad.Links[0]
	if err := bad.Validate(g); err == nil {
		t.Fatal("swapped links accepted")
	}
	loop := Path{Nodes: []topology.NodeID{0, 1, 0}, Links: p.Links[:2]}
	if err := loop.Validate(g); err == nil {
		t.Fatal("repeated node accepted")
	}
	if err := (Path{}).Validate(g); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestBoundedFloodFindsShortest(t *testing.T) {
	g := grid(t, 4, 4)
	alw := func(topology.LinkID, topology.NodeID) float64 { return 10 }
	cands, err := BoundedFlood(g, 0, 15, alw, FloodConfig{HopBound: 8, MinBandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cands[0].Path.Hops() != 6 {
		t.Fatalf("first candidate hops = %d, want 6", cands[0].Path.Hops())
	}
	for _, c := range cands {
		if err := c.Path.Validate(g); err != nil {
			t.Fatalf("invalid candidate %v: %v", c.Path, err)
		}
		if c.Allowance != 10 {
			t.Fatalf("allowance = %v", c.Allowance)
		}
	}
}

func TestBoundedFloodRespectsHopBound(t *testing.T) {
	g := line(t, 6) // 0..5, needs 5 hops
	alw := func(topology.LinkID, topology.NodeID) float64 { return 10 }
	if _, err := BoundedFlood(g, 0, 5, alw, FloodConfig{HopBound: 4, MinBandwidth: 1}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("hop bound ignored: %v", err)
	}
	cands, err := BoundedFlood(g, 0, 5, alw, FloodConfig{HopBound: 5, MinBandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Path.Hops() != 5 {
		t.Fatalf("cands = %v", cands)
	}
}

func TestBoundedFloodRespectsMinBandwidth(t *testing.T) {
	// Two routes 0→3: short one through a starved link, long wide one.
	g := topology.NewGraph(5)
	for i := 0; i < 5; i++ {
		g.AddNode(topology.Point{})
	}
	l01, _ := g.AddLink(0, 1)
	g.AddLink(1, 3)
	g.AddLink(0, 2)
	g.AddLink(2, 4)
	g.AddLink(4, 3)
	alw := func(l topology.LinkID, _ topology.NodeID) float64 {
		if l == l01 {
			return 0.5 // below the minimum
		}
		return 10
	}
	cands, err := BoundedFlood(g, 0, 3, alw, FloodConfig{HopBound: 6, MinBandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cands[0].Path.Hops() != 3 {
		t.Fatalf("should avoid starved link, got %v", cands[0].Path)
	}
}

func TestBoundedFloodParetoAllowances(t *testing.T) {
	// Short narrow route (2 hops, bw 2) vs long wide route (3 hops, bw 10):
	// both are non-dominated and should be reported.
	g := topology.NewGraph(5)
	for i := 0; i < 5; i++ {
		g.AddNode(topology.Point{})
	}
	n01, _ := g.AddLink(0, 1)
	n13, _ := g.AddLink(1, 3)
	g.AddLink(0, 2)
	g.AddLink(2, 4)
	g.AddLink(4, 3)
	alw := func(l topology.LinkID, _ topology.NodeID) float64 {
		if l == n01 || l == n13 {
			return 2
		}
		return 10
	}
	cands, err := BoundedFlood(g, 0, 3, alw, FloodConfig{HopBound: 5, MinBandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("want 2 Pareto candidates, got %d: %v", len(cands), cands)
	}
	if cands[0].Path.Hops() != 2 || cands[0].Allowance != 2 {
		t.Fatalf("first = %+v", cands[0])
	}
	if cands[1].Path.Hops() != 3 || cands[1].Allowance != 10 {
		t.Fatalf("second = %+v", cands[1])
	}
}

func TestBoundedFloodValidation(t *testing.T) {
	g := grid(t, 2, 2)
	alw := func(topology.LinkID, topology.NodeID) float64 { return 10 }
	if _, err := BoundedFlood(g, 0, 0, alw, FloodConfig{HopBound: 3, MinBandwidth: 1}); err == nil {
		t.Fatal("src==dst accepted")
	}
	if _, err := BoundedFlood(g, 0, 1, alw, FloodConfig{HopBound: 0, MinBandwidth: 1}); err == nil {
		t.Fatal("zero hop bound accepted")
	}
}

func TestBackupRouteFullyDisjoint(t *testing.T) {
	// Two parallel 2-hop routes between 0 and 3.
	g := topology.NewGraph(4)
	for i := 0; i < 4; i++ {
		g.AddNode(topology.Point{})
	}
	g.AddLink(0, 1)
	g.AddLink(1, 3)
	g.AddLink(0, 2)
	g.AddLink(2, 3)
	primary, err := ShortestHops(g, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	backup, shared, err := BackupRoute(g, primary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shared != 0 || !backup.LinkDisjoint(primary) {
		t.Fatalf("backup %v shares %d links with primary %v", backup, shared, primary)
	}
}

func TestBackupRouteMaximallyDisjoint(t *testing.T) {
	// A bridge link that every route must cross: 0-1 is a bridge, then two
	// parallel routes 1→3.
	g := topology.NewGraph(4)
	for i := 0; i < 4; i++ {
		g.AddNode(topology.Point{})
	}
	bridge, _ := g.AddLink(0, 1)
	g.AddLink(1, 3)
	g.AddLink(1, 2)
	g.AddLink(2, 3)
	primary, err := ShortestHops(g, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	backup, shared, err := BackupRoute(g, primary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shared != 1 {
		t.Fatalf("shared = %d, want exactly the bridge", shared)
	}
	found := false
	for _, l := range backup.Links {
		if l == bridge {
			found = true
		}
	}
	if !found {
		t.Fatal("backup does not use the bridge but claims shared=1")
	}
}

func TestBackupRouteNoRoute(t *testing.T) {
	g := line(t, 3) // only one route exists and it IS the primary
	primary, _ := ShortestHops(g, 0, 2, nil)
	// With a filter banning everything there is no backup at all.
	_, _, err := BackupRoute(g, primary, func(topology.LinkID) bool { return false })
	if err == nil {
		t.Fatal("impossible backup accepted")
	}
}

func TestBackupRouteEmptyPrimary(t *testing.T) {
	g := line(t, 2)
	if _, _, err := BackupRoute(g, Path{Nodes: []topology.NodeID{0}}, nil); err == nil {
		t.Fatal("primary without links accepted")
	}
}

func TestKShortest(t *testing.T) {
	g := grid(t, 3, 3)
	paths, err := KShortest(g, 0, 8, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	prevHops := 0
	seen := map[string]bool{}
	for _, p := range paths {
		if err := p.Validate(g); err != nil {
			t.Fatalf("invalid path %v: %v", p, err)
		}
		if p.Hops() < prevHops {
			t.Fatal("paths not in increasing hop order")
		}
		prevHops = p.Hops()
		if seen[p.String()] {
			t.Fatalf("duplicate path %v", p)
		}
		seen[p.String()] = true
	}
	// A 3x3 grid has 6 distinct 4-hop monotone routes 0→8.
	if len(paths) != 5 {
		t.Fatalf("got %d paths, want 5", len(paths))
	}
	for _, p := range paths {
		if p.Hops() != 4 {
			t.Fatalf("path %v has %d hops, want 4", p, p.Hops())
		}
	}
}

func TestKShortestExhaustsRoutes(t *testing.T) {
	g := line(t, 3) // exactly one route
	paths, err := KShortest(g, 0, 2, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("line graph yielded %d paths", len(paths))
	}
	if _, err := KShortest(g, 0, 2, 0, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// Property: on random connected graphs, flooding's best candidate matches
// BFS hop count, and every candidate validates and stays within the bound.
func TestQuickFloodAgreesWithBFS(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		g, err := topology.Waxman(topology.WaxmanConfig{
			Nodes: 25, Alpha: 0.4, Beta: 0.3,
		}, src)
		if err != nil {
			return false
		}
		a := topology.NodeID(src.Intn(g.NumNodes()))
		b := topology.NodeID(src.Intn(g.NumNodes()))
		if a == b {
			return true
		}
		alw := func(topology.LinkID, topology.NodeID) float64 { return 10 }
		const bound = 12
		cands, err := BoundedFlood(g, a, b, alw, FloodConfig{HopBound: bound, MinBandwidth: 1})
		bfs, bfsErr := ShortestHops(g, a, b, nil)
		if bfsErr != nil || bfs.Hops() > bound {
			return errors.Is(err, ErrNoRoute)
		}
		if err != nil {
			return false
		}
		if cands[0].Path.Hops() != bfs.Hops() {
			return false
		}
		for _, c := range cands {
			if c.Path.Validate(g) != nil || c.Path.Hops() > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: BackupRoute output always validates and is disjoint whenever a
// disjoint route exists (checked against exhaustive removal).
func TestQuickBackupValidates(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		g, err := topology.Waxman(topology.WaxmanConfig{
			Nodes: 20, Alpha: 0.4, Beta: 0.3,
		}, src)
		if err != nil {
			return false
		}
		a := topology.NodeID(src.Intn(g.NumNodes()))
		b := topology.NodeID(src.Intn(g.NumNodes()))
		if a == b {
			return true
		}
		primary, err := ShortestHops(g, a, b, nil)
		if err != nil {
			return false
		}
		backup, shared, err := BackupRoute(g, primary, nil)
		if err != nil {
			return true // fine for pathological graphs
		}
		if backup.Validate(g) != nil {
			return false
		}
		return shared == backup.SharedLinks(primary)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBoundedFlood100 floods across the paper-scale graph on a reused
// scratch, as the manager does. Under one constant allowance dominance
// prunes almost every copy, so that case barely exercises the inner loop;
// randomAllowances' thin and uneven links make every node keep several.
func BenchmarkBoundedFlood100(b *testing.B) {
	src := rng.New(1)
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 100, Alpha: 0.33, Beta: 0.12,
	}, src)
	if err != nil {
		b.Fatal(err)
	}
	constant := make([]float64, g.NumDirLinks())
	for d := range constant {
		constant[d] = 10
	}
	for _, bc := range []struct {
		name  string
		allow []float64
	}{{"constant", constant}, {"random", randomAllowances(g, 5)}} {
		b.Run(bc.name, func(b *testing.B) {
			var s FloodScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = s.Flood(g, 0, topology.NodeID(g.NumNodes()-1), bc.allow,
					FloodConfig{HopBound: 12, MinBandwidth: 1})
			}
		})
	}
}

func TestPathDirLinks(t *testing.T) {
	g := line(t, 4)
	fwd, err := ShortestHops(g, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := ShortestHops(g, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	df := fwd.DirLinks(g)
	dr := rev.DirLinks(g)
	if len(df) != 3 || len(dr) != 3 {
		t.Fatalf("dir link counts %d/%d", len(df), len(dr))
	}
	// Same physical links, strictly opposite directions.
	for i := range df {
		if df[i].Link() != dr[len(dr)-1-i].Link() {
			t.Fatal("physical links disagree")
		}
		if df[i] == dr[len(dr)-1-i] {
			t.Fatal("opposite traversals produced the same directed id")
		}
	}
}
