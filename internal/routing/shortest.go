package routing

import (
	"fmt"

	"drqos/internal/topology"
)

// RouteScratch holds the working state of the shortest-path searches —
// ShortestHops, Dijkstra and BackupRoute — so that a caller running many of
// them (the manager re-protecting connections after a link failure) reuses
// one set of arrays instead of allocating them per call, in the style of
// FloodScratch. Per-node and per-link state is epoch-stamped: a search
// starts by bumping an epoch, which invalidates every cell at once. A
// scratch is NOT safe for concurrent use; the zero value is ready, and one
// scratch serves graphs of any size. Only the returned paths are allocated.
type RouteScratch struct {
	epoch    uint32   // the running search's node stamp
	reached  []uint32 // node: prevNode/prevLink (and dist) valid when == epoch
	settled  []uint32 // node: Dijkstra has settled it when == epoch
	prevNode []topology.NodeID
	prevLink []topology.LinkID
	dist     []float64
	queue    []topology.NodeID
	heap     []distItem

	// BackupRoute's primary-link mark: l is on the running call's primary
	// when primaryTag[l] == primaryEpoch.
	primaryEpoch uint32
	primaryTag   []uint32
}

// begin starts a search over a graph of n nodes: every node stamp reads as
// unset again.
func (s *RouteScratch) begin(n int) {
	if len(s.reached) < n {
		s.reached = make([]uint32, n)
		s.settled = make([]uint32, n)
		s.prevNode = make([]topology.NodeID, n)
		s.prevLink = make([]topology.LinkID, n)
		s.dist = make([]float64, n)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: forget every stamp rather than trust a 2^32-search-old one
		clear(s.reached)
		clear(s.settled)
		s.epoch = 1
	}
}

// markPrimary starts a BackupRoute call over a graph of n links: the
// previous call's link marks are invalidated and the primary's links marked.
func (s *RouteScratch) markPrimary(n int, primary []topology.LinkID) {
	if len(s.primaryTag) < n {
		s.primaryTag = make([]uint32, n)
	}
	s.primaryEpoch++
	if s.primaryEpoch == 0 {
		clear(s.primaryTag)
		s.primaryEpoch = 1
	}
	for _, l := range primary {
		s.primaryTag[l] = s.primaryEpoch
	}
}

// onPrimary reports whether l is a link of the running call's primary.
func (s *RouteScratch) onPrimary(l topology.LinkID) bool { return s.primaryTag[l] == s.primaryEpoch }

// admits reports whether filter (nil admits all) admits l.
func admits(filter LinkFilter, l topology.LinkID) bool { return filter == nil || filter(l) }

// ShortestHops returns a minimum-hop path from src to dst using BFS over
// links admitted by filter (nil admits all). It returns ErrNoRoute when dst
// is unreachable.
func ShortestHops(g *topology.Graph, src, dst topology.NodeID, filter LinkFilter) (Path, error) {
	if err := checkEndpoints(g, src, dst); err != nil {
		return Path{}, err
	}
	if src == dst {
		return Path{Nodes: []topology.NodeID{src}}, nil
	}
	var s RouteScratch
	if !s.shortestHops(g, src, dst, func(l topology.LinkID) bool { return admits(filter, l) }) {
		return Path{}, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
	}
	return s.path(src, dst), nil
}

// shortestHops runs the BFS behind ShortestHops between two distinct valid
// endpoints and reports whether dst was reached; the path is then s.path.
// Neighbours are visited in adjacency order and the search stops at the
// first sight of dst, so the route is the first of the minimum-hop routes in
// that order.
func (s *RouteScratch) shortestHops(g *topology.Graph, src, dst topology.NodeID, usable func(topology.LinkID) bool) bool {
	s.begin(g.NumNodes())
	s.reached[src] = s.epoch
	s.queue = append(s.queue[:0], src)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		found := false
		g.ForEachNeighbor(u, func(peer topology.NodeID, link topology.LinkID) {
			if found || s.reached[peer] == s.epoch || !usable(link) {
				return
			}
			s.reached[peer] = s.epoch
			s.prevNode[peer] = u
			s.prevLink[peer] = link
			if peer == dst {
				found = true
				return
			}
			s.queue = append(s.queue, peer)
		})
		if found {
			return true
		}
	}
	return false
}

func checkEndpoints(g *topology.Graph, src, dst topology.NodeID) error {
	if src < 0 || int(src) >= g.NumNodes() || dst < 0 || int(dst) >= g.NumNodes() {
		return fmt.Errorf("%w: endpoints %d, %d out of range", topology.ErrNoSuchNode, src, dst)
	}
	return nil
}

// path materializes the search tree's route from src to dst.
func (s *RouteScratch) path(src, dst topology.NodeID) Path {
	return reconstruct(src, dst, s.prevNode, s.prevLink)
}

// reconstruct walks the back-pointers from dst to src twice: once to count
// the hops, so both slices are allocated at their exact size, once to fill
// them back to front.
func reconstruct(src, dst topology.NodeID, prevNode []topology.NodeID, prevLink []topology.LinkID) Path {
	hops := 0
	for at := dst; at != src; at = prevNode[at] {
		hops++
	}
	p := Path{
		Nodes: make([]topology.NodeID, hops+1),
		Links: make([]topology.LinkID, hops),
	}
	at := dst
	for k := hops; k > 0; k-- {
		p.Nodes[k], p.Links[k-1] = at, prevLink[at]
		at = prevNode[at]
	}
	p.Nodes[0] = src
	return p
}

// distItem is a Dijkstra frontier entry.
type distItem struct {
	node topology.NodeID
	dist float64
}

// push and pop keep s.heap a binary min-heap on dist in place. They sift
// exactly as container/heap's Push and Pop do, so entries of equal distance
// leave the heap in the same order they always have.
func (s *RouteScratch) push(it distItem) {
	s.heap = append(s.heap, it)
	h := s.heap
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (s *RouteScratch) pop() distItem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	s.heap = h[:n]
	return h[n]
}

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
	if !s.dijkstra(g, src, dst, weight, func(l topology.LinkID) bool { return admits(filter, l) }) {
		return Path{}, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
	}
	return s.path(src, dst), nil
}

// dijkstra runs the search behind Dijkstra between two distinct valid
// endpoints and reports whether dst was reached; the path is then s.path.
func (s *RouteScratch) dijkstra(g *topology.Graph, src, dst topology.NodeID, weight LinkWeight, usable func(topology.LinkID) bool) bool {
	s.begin(g.NumNodes())
	s.heap = append(s.heap[:0], distItem{node: src})
	s.reached[src], s.dist[src] = s.epoch, 0
	for len(s.heap) > 0 {
		it := s.pop()
		u := it.node
		if s.settled[u] == s.epoch {
			continue
		}
		s.settled[u] = s.epoch
		if u == dst {
			return true
		}
		g.ForEachNeighbor(u, func(peer topology.NodeID, link topology.LinkID) {
			if s.settled[peer] == s.epoch || !usable(link) {
				return
			}
			w := weight(link)
			if w <= 0 {
				panic(fmt.Sprintf("routing: non-positive weight %v on link %d", w, link))
			}
			nd := it.dist + w
			if s.reached[peer] != s.epoch || nd < s.dist[peer] {
				s.reached[peer], s.dist[peer] = s.epoch, nd
				s.prevNode[peer] = u
				s.prevLink[peer] = link
				s.push(distItem{node: peer, dist: nd})
			}
		})
	}
	return false
}

// WidestPath returns the path from src to dst maximizing the bottleneck
// value of capacity(link), breaking ties by hop count. It is used to find
// the route with the best bandwidth allowance.
func WidestPath(g *topology.Graph, src, dst topology.NodeID, capacity LinkWeight, filter LinkFilter) (Path, float64, error) {
	if err := checkEndpoints(g, src, dst); err != nil {
		return Path{}, 0, err
	}
	if src == dst {
		return Path{Nodes: []topology.NodeID{src}}, 0, nil
	}
	// Modified Dijkstra on (bottleneck desc, hops asc).
	width := make([]float64, g.NumNodes())
	hops := make([]int, g.NumNodes())
	prevNode := make([]topology.NodeID, g.NumNodes())
	prevLink := make([]topology.LinkID, g.NumNodes())
	settled := make([]bool, g.NumNodes())
	for i := range width {
		width[i] = -1
	}
	type wItem struct {
		node  topology.NodeID
		width float64
		hops  int
	}
	better := func(a, b wItem) bool {
		if a.width != b.width {
			return a.width > b.width
		}
		return a.hops < b.hops
	}
	// Simple O(V^2) selection keeps the code obvious; graphs are small.
	frontier := map[topology.NodeID]wItem{src: {node: src, width: 1e300, hops: 0}}
	width[src] = 1e300
	for len(frontier) > 0 {
		var best wItem
		first := true
		for _, it := range frontier {
			if first || better(it, best) {
				best, first = it, false
			}
		}
		delete(frontier, best.node)
		if settled[best.node] {
			continue
		}
		settled[best.node] = true
		if best.node == dst {
			return reconstruct(src, dst, prevNode, prevLink), best.width, nil
		}
		g.ForEachNeighbor(best.node, func(peer topology.NodeID, link topology.LinkID) {
			if settled[peer] || (filter != nil && !filter(link)) {
				return
			}
			c := capacity(link)
			if c <= 0 {
				return
			}
			w := best.width
			if c < w {
				w = c
			}
			cand := wItem{node: peer, width: w, hops: best.hops + 1}
			if width[peer] < 0 || better(cand, wItem{node: peer, width: width[peer], hops: hops[peer]}) {
				width[peer] = w
				hops[peer] = cand.hops
				prevNode[peer] = best.node
				prevLink[peer] = link
				frontier[peer] = cand
			}
		})
	}
	return Path{}, 0, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
}
