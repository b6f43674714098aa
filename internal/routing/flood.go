package routing

import (
	"fmt"
	"math"
	"slices"

	"drqos/internal/topology"
)

// Candidate is one route discovered by bounded flooding, together with the
// bottleneck bandwidth allowance the request copy accumulated on its way to
// the destination (§3.1: "tries to forward it with its bandwidth allowance").
type Candidate struct {
	Path      Path
	Allowance float64
}

// FloodConfig parameterizes bounded-flooding route discovery [7].
type FloodConfig struct {
	// HopBound is the flooding bound: request copies exceeding it are
	// discarded (§3.1).
	HopBound int
	// MinBandwidth is the connection's minimum requirement; a node does not
	// forward a request over a link that cannot allocate it (§3.1).
	MinBandwidth float64
}

// label is the flooding state at one node: the best allowance seen for a
// given hop count, with back-pointers for route reconstruction. Hops, nodes,
// links and label indices fit in 32 bits, so a label is three words:
// appending labels is a fifth of a flood's time.
type label struct {
	allowance float64
	hops      int32
	prevNode  int32 // a topology.NodeID; -1 at the source
	prevLabel int32 // index into labels[prevNode]; -1 at the source
	link      int32 // a topology.LinkID
}

// ref addresses one label during frontier expansion.
type ref struct {
	node int32 // a topology.NodeID
	idx  int32
}

// FloodScratch holds the per-simulation working state of the flood so that
// repeated establishments reuse one set of buffers instead of reallocating
// label tables and frontiers on every request. A scratch is NOT safe for
// concurrent use; give each goroutine (each simulation) its own. The zero
// value is ready to use.
//
// Flood allocates nothing once the scratch has grown: its candidates, and
// the arrays their paths view, are the scratch's own until its next flood,
// so a caller that keeps a route clones it (Path.Clone). BoundedFlood's
// candidates are freshly allocated. Everything is recycled across calls,
// including across calls on different graphs.
type FloodScratch struct {
	labels   [][]label
	touched  []topology.NodeID // nodes whose labels/best need resetting
	best     []float64         // best allowance of any label at the node; -1 = none
	frontier []ref
	next     []ref
	// dstBest[l] is the best allowance of a copy that reached the
	// destination over link l; NaN = none, which no comparison passes.
	// Only the destination's own links are ever set, so a flood resets
	// those and nothing else.
	dstBest []float64
	allow   []float64 // BoundedFlood's per-directed-link allowances
	// Flood's result: the candidates, and their routes back to back.
	found []Candidate
	nodes []topology.NodeID
	links []topology.LinkID
}

// NewFloodScratch returns an empty scratch. Equivalent to new(FloodScratch).
func NewFloodScratch() *FloodScratch { return &FloodScratch{} }

// reset prepares the scratch for a flood towards dst on g, clearing only
// the state the previous call dirtied.
func (s *FloodScratch) reset(g *topology.Graph, dst topology.NodeID) {
	if n := g.NumNodes(); len(s.labels) != n {
		s.labels = make([][]label, n)
		s.best = make([]float64, n)
		for i := range s.best {
			s.best[i] = -1
		}
	} else {
		for _, node := range s.touched {
			s.labels[node] = s.labels[node][:0]
			s.best[node] = -1
		}
	}
	s.touched = s.touched[:0]
	s.frontier = s.frontier[:0]
	s.next = s.next[:0]
	if len(s.dstBest) < g.NumLinks() {
		s.dstBest = make([]float64, g.NumLinks())
	}
	for _, a := range g.Arcs(dst) {
		s.dstBest[a.Out.Link()] = math.NaN()
	}
}

// BoundedFlood is Flood with the allowances given as a function: it reads
// allowance once for each directed link of g, then floods, and returns
// candidates of its own (freshly allocated).
func (s *FloodScratch) BoundedFlood(g *topology.Graph, src, dst topology.NodeID, allowance DirCost, cfg FloodConfig) ([]Candidate, error) {
	s.allow = slices.Grow(s.allow[:0], g.NumDirLinks())[:g.NumDirLinks()]
	for l := topology.LinkID(0); int(l) < g.NumLinks(); l++ {
		ends := g.Link(l)
		s.allow[2*l] = allowance(l, ends.A)
		s.allow[2*l+1] = allowance(l, ends.B)
	}
	found, err := s.Flood(g, src, dst, s.allow, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Candidate, len(found))
	for i, c := range found {
		out[i] = Candidate{Path: c.Path.Clone(), Allowance: c.Allowance}
	}
	return out, nil
}

// Flood emulates the paper's distributed route discovery: the request
// floods outward from src within HopBound hops; each copy carries the
// bottleneck of the residual bandwidths (allow[d] for directed link d)
// along its route; nodes discard copies that are dominated by an earlier
// copy (fewer-or-equal hops AND greater-or-equal allowance); the
// destination collects the surviving copies. allow holds one value per
// directed link of g.
//
// The returned candidates are sorted by (hops asc, allowance desc), i.e. in
// the order request copies would plausibly arrive — the paper notes the
// first arrival "is likely to have traversed the shortest path" and becomes
// the primary route. They and their paths are the scratch's, valid until
// its next flood.
//
// Dominance bookkeeping: copies are expanded in hop order, so every label
// already recorded at a node has fewer-or-equal hops than an arriving copy;
// the per-node check therefore reduces to comparing against the best
// allowance seen at that node so far (best), an O(1) test instead of a scan
// over all labels. The destination is special: it collects copies arriving
// over different routes (§3.1, backup selection), so there a copy is only
// discarded against earlier copies that entered via the same link (dstBest).
func (s *FloodScratch) Flood(g *topology.Graph, src, dst topology.NodeID, allow []float64, cfg FloodConfig) ([]Candidate, error) {
	if err := checkEndpoints(g, src, dst); err != nil {
		return nil, err
	}
	if src == dst {
		return nil, fmt.Errorf("routing: flooding with src == dst (%d)", src)
	}
	if cfg.HopBound <= 0 {
		return nil, fmt.Errorf("routing: non-positive hop bound %d", cfg.HopBound)
	}
	if len(allow) < g.NumDirLinks() {
		return nil, fmt.Errorf("routing: %d allowances for %d directed links", len(allow), g.NumDirLinks())
	}
	s.reset(g, dst)
	labels := s.labels
	labels[src] = append(labels[src], label{hops: 0, allowance: 1e300, prevNode: -1, prevLabel: -1, link: -1})
	s.best[src] = 1e300
	s.touched = append(s.touched, src)
	s.frontier = append(s.frontier, ref{node: int32(src), idx: 0})

	for h := int32(0); int(h) < cfg.HopBound && len(s.frontier) > 0; h++ {
		s.next = s.next[:0]
		for _, f := range s.frontier {
			cur := labels[f.node][f.idx]
			if cur.hops != h {
				continue
			}
			for _, a := range g.Arcs(topology.NodeID(f.node)) {
				peer := a.Peer
				if int32(peer) == cur.prevNode {
					continue // never send a copy back where it came from
				}
				res := allow[a.Out]
				if res < cfg.MinBandwidth {
					continue // not enough bandwidth to be allocated (§3.1)
				}
				alw := cur.allowance
				if res < alw {
					alw = res
				}
				// Dominance (§3.1): an earlier copy with a
				// greater-or-equal allowance wins (first arrival keeps
				// ties); all earlier copies have fewer-or-equal hops.
				link := a.Out.Link()
				if peer == dst {
					if s.dstBest[link] >= alw {
						continue
					}
					s.dstBest[link] = alw
				} else if s.best[peer] >= alw {
					continue
				}
				if len(labels[peer]) == 0 {
					s.touched = append(s.touched, peer)
				}
				labels[peer] = append(labels[peer], label{
					hops:      h + 1,
					allowance: alw,
					prevNode:  f.node,
					prevLabel: f.idx,
					link:      int32(link),
				})
				if alw > s.best[peer] {
					s.best[peer] = alw
				}
				if peer != dst { // the destination does not forward
					s.next = append(s.next, ref{node: int32(peer), idx: int32(len(labels[peer]) - 1)})
				}
			}
		}
		s.frontier, s.next = s.next, s.frontier
	}

	// Every surviving destination label is one arrived request copy.
	arrived := labels[dst]
	if len(arrived) == 0 {
		return nil, fmt.Errorf("%w: flooding %d -> %d within %d hops at %v bandwidth",
			ErrNoRoute, src, dst, cfg.HopBound, cfg.MinBandwidth)
	}
	hops := 0
	for _, l := range arrived {
		hops += int(l.hops)
	}
	s.nodes = slices.Grow(s.nodes[:0], hops+len(arrived))[:hops+len(arrived)]
	s.links = slices.Grow(s.links[:0], hops)[:hops]
	s.found = s.found[:0]
	n, k := 0, 0
	for i, l := range arrived {
		h := int(l.hops)
		p := Path{Nodes: s.nodes[n : n+h+1 : n+h+1], Links: s.links[k : k+h : k+h]}
		rebuildLabelPath(p, labels, dst, int32(i))
		s.found = append(s.found, Candidate{Path: p, Allowance: l.allowance})
		n, k = n+h+1, k+h
	}
	// slices.SortFunc and sort.Slice run one pattern-defeating quicksort,
	// so ties keep the order they always had.
	slices.SortFunc(s.found, func(a, b Candidate) int {
		switch {
		case a.Path.Hops() != b.Path.Hops():
			return a.Path.Hops() - b.Path.Hops()
		case a.Allowance > b.Allowance:
			return -1
		case a.Allowance < b.Allowance:
			return 1
		}
		return 0
	})
	return s.found, nil
}

// rebuildLabelPath writes one destination label's route into p, whose
// slices have the label's hop count plus one nodes and its hop count links,
// back to front: no reversal pass, no intermediate reversed copies.
func rebuildLabelPath(p Path, labels [][]label, dst topology.NodeID, idx int32) {
	node, i := dst, idx
	for k := len(p.Links); ; k-- {
		l := labels[node][i]
		p.Nodes[k] = node
		if l.prevNode < 0 {
			return
		}
		p.Links[k-1] = topology.LinkID(l.link)
		node, i = topology.NodeID(l.prevNode), l.prevLabel
	}
}
