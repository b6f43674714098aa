package topology

import (
	"fmt"
	"math"

	"drqos/internal/rng"
)

// WaxmanConfig parameterizes the Waxman random-graph model [16]: nodes are
// scattered uniformly in the unit square and each node pair (u,v) is joined
// with probability
//
//	P(u,v) = Alpha · exp(−d(u,v) / (Beta · L))
//
// where d is the Euclidean distance and L = √2 the unit square's diagonal.
//
// The paper quotes "α = 0.33 and β = 0" from GT-ITM, which is degenerate in
// the standard Waxman form (β = 0 makes every probability zero). We instead
// reproduce the *reported instance*: 100 nodes, 354 edges, average degree
// 3.48, diameter 8. A binary search for the β that hits a target edge count
// under a fixed α (TestCalibrateBetaHitsPaperInstance) recovers a topology
// with the paper's structural statistics. This substitution is recorded in
// DESIGN.md.
type WaxmanConfig struct {
	Nodes int
	Alpha float64
	Beta  float64
	// ConstantDensity scatters the nodes over a square of side
	// √(Nodes/100) instead of the unit square, keeping the exponential's
	// distance scale pinned to the unit-square diagonal. Node density, and
	// so the per-node degree, then stays that of a 100-node instance as the
	// network grows, and the edge count grows ~linearly with the node count
	// — the sub-quadratic growth visible in the paper's Figure 3 edge-count
	// overlay (GT-ITM's "scale" parameter behaves this way). On the unit
	// square the probability depends only on relative distances and the
	// edge count grows quadratically.
	ConstantDensity bool
}

// Waxman generates a Waxman random graph, patching disconnected components
// together with shortest bridging edges so the routing layer always has a
// path: GT-ITM's users (the paper included) discard or patch disconnected
// instances, and patching keeps generation deterministic. The source
// determines the layout and edge choices; identical configs and seeds give
// identical graphs.
func Waxman(cfg WaxmanConfig, src *rng.Source) (*Graph, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("topology: Waxman needs >=2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("topology: Waxman alpha %v outside (0,1]", cfg.Alpha)
	}
	if cfg.Beta <= 0 {
		return nil, fmt.Errorf("topology: Waxman beta %v must be positive", cfg.Beta)
	}
	side := 1.0
	if cfg.ConstantDensity {
		side = math.Sqrt(float64(cfg.Nodes) / 100)
	}
	g := NewGraph(cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		g.AddNode(Point{X: side * src.Float64(), Y: side * src.Float64()})
	}
	for a := 0; a < cfg.Nodes; a++ {
		for b := a + 1; b < cfg.Nodes; b++ {
			d := g.Pos(NodeID(a)).Dist(g.Pos(NodeID(b)))
			p := cfg.Alpha * math.Exp(-d/(cfg.Beta*math.Sqrt2))
			if src.Bernoulli(p) {
				if _, err := g.AddLink(NodeID(a), NodeID(b)); err != nil {
					return nil, err
				}
			}
		}
	}
	connectComponents(g)
	return g, nil
}

// connectComponents joins disconnected components by adding, for each
// non-primary component, the geometrically shortest edge to the primary one.
func connectComponents(g *Graph) {
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			return
		}
		main := comps[0]
		for _, comp := range comps[1:] {
			bestA, bestB := main[0], comp[0]
			best := math.Inf(1)
			for _, a := range main {
				for _, b := range comp {
					if d := g.Pos(a).Dist(g.Pos(b)); d < best {
						best, bestA, bestB = d, a, b
					}
				}
			}
			// Duplicate links are impossible across components.
			if _, err := g.AddLink(bestA, bestB); err != nil {
				panic(fmt.Sprintf("topology: bridging edge failed: %v", err))
			}
		}
	}
}
