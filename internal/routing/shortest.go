package routing

import (
	"fmt"

	"drqos/internal/topology"
)

// RouteScratch holds the working state of the shortest-path searches —
// ShortestHops and BackupRoute — so that a caller running many of
// them (the manager re-protecting connections after a link failure) reuses
// one set of arrays instead of allocating them per call, in the style of
// FloodScratch. Per-node and per-link state is epoch-stamped: a search
// starts by bumping an epoch, which invalidates every cell at once. A
// link's state (linkState) asks the call's filter once, on the link's first
// visit, so the searches walk the adjacency arrays with no call per edge
// and no pass over every link. A scratch is NOT safe for concurrent use;
// the zero value is ready, and one scratch serves graphs of any size. Only
// the returned paths are allocated.
type RouteScratch struct {
	epoch    uint32   // the running search's node stamp
	reached  []uint32 // node: prevNode/prevLink (and dist) valid when == epoch
	settled  []uint32 // node: Dijkstra has settled it when == epoch
	prevNode []topology.NodeID
	prevLink []topology.LinkID
	dist     []float64
	queue    []topology.NodeID
	heap     []distItem

	// The running call's link states: link[l] holds l's when
	// linkTag[l] == linkEpoch.
	linkEpoch uint32
	linkTag   []uint32
	link      []uint8
	cost      []float64 // per link: dijkstra's weight
}

// Link states a search reads.
const (
	linkUsable  uint8 = 1 << iota // the call's filter admits it
	linkPrimary                   // on BackupRoute's primary
)

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

// beginLinks starts a call over a graph of n links: every link's state is
// unset again.
func (s *RouteScratch) beginLinks(n int) {
	if len(s.linkTag) < n {
		s.linkTag = make([]uint32, n)
		s.link = make([]uint8, n)
	}
	s.linkEpoch++
	if s.linkEpoch == 0 { // wrapped, as begin's node stamp
		clear(s.linkTag)
		s.linkEpoch = 1
	}
}

// linkState returns l's state in the running call, asking the call's filter
// (nil admits all) whether l is usable on its first visit.
func (s *RouteScratch) linkState(l topology.LinkID, filter LinkFilter) uint8 {
	if s.linkTag[l] != s.linkEpoch {
		s.linkTag[l], s.link[l] = s.linkEpoch, 0
		if filter == nil || filter(l) {
			s.link[l] = linkUsable
		}
	}
	return s.link[l]
}

// ShortestHops returns a minimum-hop path from src to dst using BFS over
// links admitted by filter (nil admits all). It returns ErrNoRoute when dst
// is unreachable.
func ShortestHops(g *topology.Graph, src, dst topology.NodeID, filter LinkFilter) (Path, error) {
	var s RouteScratch
	return s.ShortestHops(g, src, dst, filter)
}

// ShortestHops is the package function on a reused scratch: the search
// allocates the path it returns and nothing else once the scratch has
// grown to the graph.
func (s *RouteScratch) ShortestHops(g *topology.Graph, src, dst topology.NodeID, filter LinkFilter) (Path, error) {
	if err := checkEndpoints(g, src, dst); err != nil {
		return Path{}, err
	}
	if src == dst {
		return Path{Nodes: []topology.NodeID{src}}, nil
	}
	s.beginLinks(g.NumLinks())
	if !s.shortestHops(g, src, dst, filter, linkUsable) {
		return Path{}, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
	}
	return s.path(src, dst), nil
}

// shortestHops runs the BFS behind ShortestHops between two distinct valid
// endpoints over the links whose state (filter deciding linkUsable), masked
// by mask, is linkUsable, and reports whether dst was reached; the path is
// then s.path. Neighbours are visited in adjacency order and the search
// stops at the first sight of dst, so the route is the first of the
// minimum-hop routes in that order.
func (s *RouteScratch) shortestHops(g *topology.Graph, src, dst topology.NodeID, filter LinkFilter, mask uint8) bool {
	s.begin(g.NumNodes())
	s.reached[src] = s.epoch
	s.queue = append(s.queue[:0], src)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		for _, a := range g.Arcs(u) {
			peer, link := a.Peer, a.Out.Link()
			if s.reached[peer] == s.epoch || s.linkState(link, filter)&mask != linkUsable {
				continue
			}
			s.reached[peer] = s.epoch
			s.prevNode[peer] = u
			s.prevLink[peer] = link
			if peer == dst {
				return true
			}
			s.queue = append(s.queue, peer)
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

// dijkstra runs a minimum-weight search between two distinct valid endpoints
// over the links filter admits, each weighing s.cost (which must be
// positive), and reports whether dst was reached; the path is then s.path.
// BackupRoute falls back to it.
func (s *RouteScratch) dijkstra(g *topology.Graph, src, dst topology.NodeID, filter LinkFilter) bool {
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
		for _, a := range g.Arcs(u) {
			peer, link := a.Peer, a.Out.Link()
			if s.settled[peer] == s.epoch || s.linkState(link, filter)&linkUsable == 0 {
				continue
			}
			w := s.cost[link]
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
		}
	}
	return false
}
