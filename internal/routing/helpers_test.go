package routing

import (
	"fmt"

	"drqos/internal/topology"
)

// The one-shot searches and path helpers the tests compare the production
// searches against: Dijkstra against ShortestHops and the backup fallback,
// the one-shot flood against the reusable scratch.

// LinkWeight returns the cost of traversing a link. Weights must be
// positive.
type LinkWeight func(topology.LinkID) float64

// Dijkstra returns a minimum-weight path from src to dst. weight must return
// positive costs; filter (nil admits all) restricts usable links.
func Dijkstra(g *topology.Graph, src, dst topology.NodeID, weight LinkWeight, filter LinkFilter) (Path, error) {
	if err := checkEndpoints(g, src, dst); err != nil {
		return Path{}, err
	}
	if weight == nil {
		weight = func(topology.LinkID) float64 { return 1 }
	}
	if src == dst {
		return Path{Nodes: []topology.NodeID{src}}, nil
	}
	var s RouteScratch
	s.beginLinks(g.NumLinks())
	s.cost = make([]float64, g.NumLinks())
	for l := range s.cost {
		s.cost[l] = weight(topology.LinkID(l))
	}
	if !s.dijkstra(g, src, dst, filter) {
		return Path{}, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
	}
	return s.path(src, dst), nil
}

// BoundedFlood emulates the paper's distributed route discovery with a
// one-shot scratch; see FloodScratch.BoundedFlood for the reusable form the
// hot paths use.
func BoundedFlood(g *topology.Graph, src, dst topology.NodeID, allowance DirCost, cfg FloodConfig) ([]Candidate, error) {
	var s FloodScratch
	return s.BoundedFlood(g, src, dst, allowance, cfg)
}

// LinkDisjoint reports whether p and q share no links.
func (p Path) LinkDisjoint(q Path) bool { return p.SharedLinks(q) == 0 }
