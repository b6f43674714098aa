package topology

// Graph queries, the JSON reader and the Waxman β calibration that only this
// package's tests use.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"drqos/internal/rng"
)

// Forward reports whether this is the A→B direction.
func (d DirLinkID) Forward() bool { return d%2 == 0 }

// Other returns the endpoint opposite n, or -1 if n is not an endpoint.
func (l Link) Other(n NodeID) NodeID {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	default:
		return -1
	}
}

// LinkBetween returns the link joining a and b, if any.
func (g *Graph) LinkBetween(a, b NodeID) (LinkID, bool) {
	if int(a) >= len(g.adj) || a < 0 {
		return -1, false
	}
	for _, h := range g.adj[a] {
		if h.Peer == b {
			return h.Out.Link(), true
		}
	}
	return -1, false
}

// Links returns a copy of the link list.
func (g *Graph) Links() []Link {
	out := make([]Link, len(g.links))
	copy(out, g.links)
	return out
}

// Degree returns the number of links incident to n.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// Neighbors appends the neighbors of n to dst and returns it. Passing a
// reusable dst avoids per-call allocation in hot paths.
func (g *Graph) Neighbors(n NodeID, dst []NodeID) []NodeID {
	for _, h := range g.adj[n] {
		dst = append(dst, h.Peer)
	}
	return dst
}

// IncidentLinks appends the link IDs incident to n to dst and returns it.
func (g *Graph) IncidentLinks(n NodeID, dst []LinkID) []LinkID {
	for _, h := range g.adj[n] {
		dst = append(dst, h.Out.Link())
	}
	return dst
}

// Connected reports whether the graph is connected (true for graphs with
// fewer than two nodes).
func (g *Graph) Connected() bool {
	if g.NumNodes() < 2 {
		return true
	}
	dist := g.BFSDist(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// ReadJSON deserializes a graph written by WriteJSON.
func ReadJSON(r io.Reader) (*Graph, error) {
	var jg jsonGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, fmt.Errorf("topology: decoding graph: %w", err)
	}
	g := NewGraph(len(jg.Nodes))
	for i, n := range jg.Nodes {
		if n.ID != i {
			return nil, fmt.Errorf("topology: node IDs must be dense; got %d at index %d", n.ID, i)
		}
		g.AddTaggedNode(Point{X: n.X, Y: n.Y}, n.Tag)
	}
	for i, l := range jg.Links {
		if l.ID != i {
			return nil, fmt.Errorf("topology: link IDs must be dense; got %d at index %d", l.ID, i)
		}
		if _, err := g.AddLink(NodeID(l.A), NodeID(l.B)); err != nil {
			return nil, fmt.Errorf("topology: decoding link %d: %w", i, err)
		}
	}
	return g, nil
}

// CalibrateBeta binary-searches the Waxman β that produces approximately
// targetEdges edges for the given node count and α, averaging over trials
// seeded from src. It returns the calibrated β.
func CalibrateBeta(nodes int, alpha float64, targetEdges, trials int, src *rng.Source) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("topology: CalibrateBeta needs >=1 trial")
	}
	avgEdges := func(beta float64, probe *rng.Source) (float64, error) {
		var total int
		for t := 0; t < trials; t++ {
			g, err := Waxman(WaxmanConfig{Nodes: nodes, Alpha: alpha, Beta: beta}, rng.New(probe.Uint64()))
			if err != nil {
				return 0, err
			}
			total += g.NumLinks()
		}
		return float64(total) / float64(trials), nil
	}
	lo, hi := 1e-4, 100.0
	// The probe stream is split once per evaluation so each β is judged on
	// fresh but deterministic instances.
	for iter := 0; iter < 60; iter++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: β spans decades
		e, err := avgEdges(mid, src)
		if err != nil {
			return 0, err
		}
		if math.Abs(e-float64(targetEdges)) <= 0.01*float64(targetEdges)+1 {
			return mid, nil
		}
		if e < float64(targetEdges) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi), nil
}
