package routing

import (
	"errors"
	"reflect"
	"testing"

	"drqos/internal/rng"
	"drqos/internal/topology"
)

// randomWaxman generates a connected Waxman graph for the property tests.
func randomWaxman(t testing.TB, nodes int, seed uint64) *topology.Graph {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: nodes, Alpha: 0.6, Beta: 0.35,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomAllowances builds deterministic per-directed-link residual
// bandwidths with some links too thin to forward over.
func randomAllowances(g *topology.Graph, seed uint64) []float64 {
	src := rng.New(seed)
	res := make([]float64, g.NumDirLinks())
	for i := range res {
		res[i] = float64(src.Intn(1000)) // 0..999 Kbps, some below MinBandwidth
	}
	return res
}

// randomAllowance is randomAllowances as the function BoundedFlood takes.
func randomAllowance(g *topology.Graph, seed uint64) DirCost {
	res := randomAllowances(g, seed)
	return func(l topology.LinkID, from topology.NodeID) float64 {
		return res[g.DirID(l, from)]
	}
}

// TestFloodScratchMatchesFresh is the scratch-reuse correctness property:
// one FloodScratch recycled across many floods — across different endpoint
// pairs, configs, AND different graphs — must return exactly what a fresh
// per-call allocation returns.
func TestFloodScratchMatchesFresh(t *testing.T) {
	scratch := NewFloodScratch()
	for trial := 0; trial < 30; trial++ {
		seed := uint64(trial + 1)
		nodes := 20 + (trial%4)*15 // cycle graph sizes to exercise resizing
		g := randomWaxman(t, nodes, seed)
		allowance := randomAllowance(g, seed*31)
		pick := rng.New(seed * 97)
		for pair := 0; pair < 8; pair++ {
			src := topology.NodeID(pick.Intn(g.NumNodes()))
			dst := topology.NodeID(pick.Intn(g.NumNodes()))
			if src == dst {
				continue
			}
			cfg := FloodConfig{
				HopBound:     2 + pick.Intn(10),
				MinBandwidth: float64(pick.Intn(400)),
			}
			fresh, freshErr := BoundedFlood(g, src, dst, allowance, cfg)
			pooled, pooledErr := scratch.BoundedFlood(g, src, dst, allowance, cfg)
			if (freshErr == nil) != (pooledErr == nil) {
				t.Fatalf("trial %d pair %d: error mismatch: fresh=%v pooled=%v", trial, pair, freshErr, pooledErr)
			}
			if freshErr != nil {
				if freshErr.Error() != pooledErr.Error() {
					t.Fatalf("trial %d pair %d: different errors: %v vs %v", trial, pair, freshErr, pooledErr)
				}
				continue
			}
			if !reflect.DeepEqual(fresh, pooled) {
				t.Fatalf("trial %d pair %d (%d->%d, %+v): candidates diverge\nfresh:  %+v\npooled: %+v",
					trial, pair, src, dst, cfg, fresh, pooled)
			}
		}
	}
}

// TestFloodScratchResultsAreIndependent verifies the returned candidate
// paths do not alias scratch state: a later flood must not mutate an
// earlier flood's paths.
func TestFloodScratchResultsAreIndependent(t *testing.T) {
	g := randomWaxman(t, 40, 7)
	allowance := randomAllowance(g, 11)
	scratch := NewFloodScratch()
	cfg := FloodConfig{HopBound: 8, MinBandwidth: 1}
	first, err := scratch.BoundedFlood(g, 0, topology.NodeID(g.NumNodes()-1), allowance, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]Candidate, len(first))
	for i, c := range first {
		snapshot[i] = Candidate{Allowance: c.Allowance, Path: Path{
			Nodes: append([]topology.NodeID(nil), c.Path.Nodes...),
			Links: append([]topology.LinkID(nil), c.Path.Links...),
		}}
	}
	for i := 0; i < 20; i++ {
		src := topology.NodeID(i % g.NumNodes())
		dst := topology.NodeID((i*13 + 5) % g.NumNodes())
		if src == dst {
			continue
		}
		_, _ = scratch.BoundedFlood(g, src, dst, allowance, cfg)
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatal("later floods mutated earlier candidates")
	}
}

// BenchmarkBoundedFlood measures the flooding kernel on a 100-node Waxman
// graph, comparing a fresh scratch per call (through the DirCost adapter)
// against the reused scratch and allowance slice the manager floods with.
// The interesting number is allocs/op.
func BenchmarkBoundedFlood(b *testing.B) {
	g := randomWaxman(b, 100, 3)
	allowance, allow := randomAllowance(g, 5), randomAllowances(g, 5)
	cfg := FloodConfig{HopBound: 16, MinBandwidth: 100}
	pairs := make([][2]topology.NodeID, 64)
	pick := rng.New(9)
	for i := range pairs {
		src := topology.NodeID(pick.Intn(g.NumNodes()))
		dst := topology.NodeID(pick.Intn(g.NumNodes() - 1))
		if dst >= src {
			dst++
		}
		pairs[i] = [2]topology.NodeID{src, dst}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := BoundedFlood(g, p[0], p[1], allowance, cfg); err != nil && !errors.Is(err, ErrNoRoute) {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		scratch := NewFloodScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := scratch.Flood(g, p[0], p[1], allow, cfg); err != nil && !errors.Is(err, ErrNoRoute) {
				b.Fatal(err)
			}
		}
	})
}
