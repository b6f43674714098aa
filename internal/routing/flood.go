package routing

import (
	"fmt"
	"sort"

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
	// MaxCandidates caps the number of routes returned (the destination
	// stops waiting for more copies after this many useful arrivals).
	// Zero means no cap.
	MaxCandidates int
}

// label is the flooding state at one node: the best allowance seen for a
// given hop count, with back-pointers for route reconstruction.
type label struct {
	hops      int
	allowance float64
	prevNode  topology.NodeID
	prevLabel int // index into labels[prevNode]; -1 at the source
	link      topology.LinkID
}

// ref addresses one label during frontier expansion.
type ref struct {
	node topology.NodeID
	idx  int
}

// FloodScratch holds the per-simulation working state of BoundedFlood so
// that repeated establishments reuse one set of buffers instead of
// reallocating label tables and frontiers on every request. A scratch is
// NOT safe for concurrent use; give each goroutine (each simulation) its
// own. The zero value is ready to use.
//
// Reuse is transparent: only the returned Candidate paths are freshly
// allocated (callers retain them in connections), everything else is
// recycled across calls, including across calls on different graphs.
type FloodScratch struct {
	labels   [][]label
	touched  []topology.NodeID // nodes whose labels/best need resetting
	best     []float64         // best allowance of any label at the node; -1 = none
	frontier []ref
	next     []ref
	dstBest  map[topology.LinkID]float64 // per-entry-link best allowance at dst
}

// NewFloodScratch returns an empty scratch. Equivalent to new(FloodScratch).
func NewFloodScratch() *FloodScratch { return &FloodScratch{} }

// reset prepares the scratch for a graph with n nodes, clearing only the
// state the previous call dirtied.
func (s *FloodScratch) reset(n int) {
	if len(s.labels) != n {
		s.labels = make([][]label, n)
		s.best = make([]float64, n)
		for i := range s.best {
			s.best[i] = -1
		}
		s.touched = s.touched[:0]
	} else {
		for _, node := range s.touched {
			s.labels[node] = s.labels[node][:0]
			s.best[node] = -1
		}
		s.touched = s.touched[:0]
	}
	s.frontier = s.frontier[:0]
	s.next = s.next[:0]
	if s.dstBest == nil {
		s.dstBest = make(map[topology.LinkID]float64)
	} else {
		clear(s.dstBest)
	}
}

// BoundedFlood emulates the paper's distributed route discovery: the request
// floods outward from src within HopBound hops; each copy carries the
// bottleneck of the residual bandwidths (allowance(link)) along its route;
// nodes discard copies that are dominated by an earlier copy (fewer-or-equal
// hops AND greater-or-equal allowance); the destination collects the
// surviving copies.
//
// The returned candidates are sorted by (hops asc, allowance desc), i.e. in
// the order request copies would plausibly arrive — the paper notes the
// first arrival "is likely to have traversed the shortest path" and becomes
// the primary route.
//
// Dominance bookkeeping: copies are expanded in hop order, so every label
// already recorded at a node has fewer-or-equal hops than an arriving copy;
// the per-node check therefore reduces to comparing against the best
// allowance seen at that node so far (best), an O(1) test instead of a scan
// over all labels. The destination is special: it collects copies arriving
// over different routes (§3.1, backup selection), so there a copy is only
// discarded against earlier copies that entered via the same link (dstBest).
func (s *FloodScratch) BoundedFlood(g *topology.Graph, src, dst topology.NodeID, allowance DirCost, cfg FloodConfig) ([]Candidate, error) {
	if err := checkEndpoints(g, src, dst); err != nil {
		return nil, err
	}
	if src == dst {
		return nil, fmt.Errorf("routing: flooding with src == dst (%d)", src)
	}
	if cfg.HopBound <= 0 {
		return nil, fmt.Errorf("routing: non-positive hop bound %d", cfg.HopBound)
	}
	s.reset(g.NumNodes())
	labels := s.labels
	labels[src] = append(labels[src], label{hops: 0, allowance: 1e300, prevNode: -1, prevLabel: -1, link: -1})
	s.best[src] = 1e300
	s.touched = append(s.touched, src)
	s.frontier = append(s.frontier, ref{node: src, idx: 0})

	for h := 0; h < cfg.HopBound && len(s.frontier) > 0; h++ {
		s.next = s.next[:0]
		for _, f := range s.frontier {
			cur := labels[f.node][f.idx]
			if cur.hops != h {
				continue
			}
			fNode, fIdx := f.node, f.idx
			g.ForEachNeighbor(f.node, func(peer topology.NodeID, link topology.LinkID) {
				if peer == cur.prevNode {
					return // never send a copy back where it came from
				}
				res := allowance(link, fNode)
				if res < cfg.MinBandwidth {
					return // not enough bandwidth to be allocated (§3.1)
				}
				alw := cur.allowance
				if res < alw {
					alw = res
				}
				// Dominance (§3.1): an earlier copy with a
				// greater-or-equal allowance wins (first arrival keeps
				// ties); all earlier copies have fewer-or-equal hops.
				if peer == dst {
					if prev, ok := s.dstBest[link]; ok && prev >= alw {
						return
					}
					s.dstBest[link] = alw
				} else if s.best[peer] >= alw {
					return
				}
				if len(labels[peer]) == 0 {
					s.touched = append(s.touched, peer)
				}
				labels[peer] = append(labels[peer], label{
					hops:      h + 1,
					allowance: alw,
					prevNode:  fNode,
					prevLabel: fIdx,
					link:      link,
				})
				if alw > s.best[peer] {
					s.best[peer] = alw
				}
				if peer != dst { // the destination does not forward
					s.next = append(s.next, ref{node: peer, idx: len(labels[peer]) - 1})
				}
			})
		}
		s.frontier, s.next = s.next, s.frontier
	}

	// Every surviving destination label is one arrived request copy.
	out := make([]Candidate, 0, len(labels[dst]))
	for i, l := range labels[dst] {
		out = append(out, Candidate{Path: rebuildLabelPath(labels, dst, i), Allowance: l.allowance})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: flooding %d -> %d within %d hops at %v bandwidth",
			ErrNoRoute, src, dst, cfg.HopBound, cfg.MinBandwidth)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path.Hops() != out[j].Path.Hops() {
			return out[i].Path.Hops() < out[j].Path.Hops()
		}
		return out[i].Allowance > out[j].Allowance
	})
	if cfg.MaxCandidates > 0 && len(out) > cfg.MaxCandidates {
		out = out[:cfg.MaxCandidates]
	}
	return out, nil
}

// rebuildLabelPath materializes one destination label's route. The label's
// hop count is the path length, so both slices are allocated at their exact
// final size and filled back to front — no reversal pass, no intermediate
// reversed copies.
func rebuildLabelPath(labels [][]label, dst topology.NodeID, idx int) Path {
	hops := labels[dst][idx].hops
	p := Path{
		Nodes: make([]topology.NodeID, hops+1),
		Links: make([]topology.LinkID, hops),
	}
	node, i := dst, idx
	for k := hops; ; k-- {
		l := labels[node][i]
		p.Nodes[k] = node
		if l.prevNode < 0 {
			break
		}
		p.Links[k-1] = l.link
		node, i = l.prevNode, l.prevLabel
	}
	return p
}
