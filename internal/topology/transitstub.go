package topology

import (
	"math"

	"drqos/internal/rng"
)

// The paper's "Tier" network, a GT-ITM-style transit-stub internetwork
// [14]: a small, well-connected transit core, with several stub domains
// hanging off each transit node, 4 × (1 + 3·8) = 100 nodes. Traffic between
// stubs must cross transit links, which become the bandwidth bottleneck —
// the reason the paper's Table 1 notes that "most DR-connections are
// rejected due to the shortage of bandwidths in the transit-stub network".
const (
	// transitNodes is the size of the transit core.
	transitNodes = 4
	// transitEdgeProb is the probability of an extra core edge beyond the
	// ring that guarantees core connectivity.
	transitEdgeProb = 0.5
	// stubsPerTransit is the number of stub domains attached to each
	// transit node.
	stubsPerTransit = 3
	// nodesPerStub is the number of nodes in each stub domain.
	nodesPerStub = 8
	// stubEdgeProb is the probability of an extra intra-stub edge beyond
	// the spanning tree that guarantees stub connectivity.
	stubEdgeProb = 0.25
)

// TransitStub generates the paper's transit-stub topology. Node tags are
// "transit" or "stub"; the graph is connected by construction.
func TransitStub(src *rng.Source) (*Graph, error) {
	g := NewGraph(transitNodes * (1 + stubsPerTransit*nodesPerStub))

	// Transit core: nodes on a small circle in the centre of the unit
	// square, connected in a ring plus random chords.
	transit := make([]NodeID, transitNodes)
	for i := range transit {
		frac := float64(i) / float64(transitNodes)
		p := Point{X: 0.5 + 0.1*cos01(frac), Y: 0.5 + 0.1*sin01(frac)}
		transit[i] = g.AddTaggedNode(p, "transit")
	}
	for i := range transit {
		next := transit[(i+1)%len(transit)]
		if !g.HasLink(transit[i], next) {
			if _, err := g.AddLink(transit[i], next); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < len(transit); i++ {
		for j := i + 2; j < len(transit); j++ {
			if g.HasLink(transit[i], transit[j]) {
				continue
			}
			if src.Bernoulli(transitEdgeProb) {
				if _, err := g.AddLink(transit[i], transit[j]); err != nil {
					return nil, err
				}
			}
		}
	}

	// Stub domains: a random spanning tree plus extra random edges; the
	// first node of each stub is its gateway, linked to its transit node.
	for _, tn := range transit {
		for s := 0; s < stubsPerTransit; s++ {
			stub := make([]NodeID, nodesPerStub)
			for k := range stub {
				p := Point{X: src.Float64(), Y: src.Float64()}
				stub[k] = g.AddTaggedNode(p, "stub")
			}
			// Random spanning tree: attach node k to a random earlier node.
			for k := 1; k < len(stub); k++ {
				parent := stub[src.Intn(k)]
				if _, err := g.AddLink(stub[k], parent); err != nil {
					return nil, err
				}
			}
			for i := 0; i < len(stub); i++ {
				for j := i + 1; j < len(stub); j++ {
					if g.HasLink(stub[i], stub[j]) {
						continue
					}
					if src.Bernoulli(stubEdgeProb) {
						if _, err := g.AddLink(stub[i], stub[j]); err != nil {
							return nil, err
						}
					}
				}
			}
			gateway := stub[0]
			if _, err := g.AddLink(tn, gateway); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// cos01 and sin01 map a [0,1) fraction of a full turn to the unit circle.
func cos01(frac float64) float64 { return math.Cos(2 * math.Pi * frac) }
func sin01(frac float64) float64 { return math.Sin(2 * math.Pi * frac) }
