// Package topology models point-to-point network topologies and provides
// the two generative models the paper draws from the GT-ITM package [14]:
// Waxman random graphs [16] and transit-stub ("tier") internetworks.
//
// Graphs are undirected; every physical link is a single Link with a stable
// LinkID, which is what the resource-management layer keys its reservations
// on. Node positions are kept because the Waxman model's edge probability
// depends on Euclidean distance.
package topology

import (
	"errors"
	"fmt"
	"math"
)

// NodeID identifies a node within one Graph (dense, 0-based).
type NodeID int

// LinkID identifies an undirected link within one Graph (dense, 0-based).
type LinkID int

// Point is a node position in the unit square.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// DirLinkID identifies one direction of a physical link. A physical Link l
// has two directions: A→B (forward, 2·l) and B→A (reverse, 2·l+1).
// Real-time channels are unidirectional virtual circuits [3], so bandwidth
// is reserved per direction; a physical failure takes out both directions.
type DirLinkID int

// Link returns the physical link this direction belongs to.
func (d DirLinkID) Link() LinkID { return LinkID(d / 2) }

// Link is an undirected physical edge between two nodes, carrying one
// independent capacity in each direction.
type Link struct {
	ID   LinkID
	A, B NodeID
}

// Arc is one directed view of a link in the adjacency list: leaving the
// node whose list holds it, the arc traverses directed link Out (DirID of
// its link from that node; Out.Link() is the physical link) to Peer.
type Arc struct {
	Peer NodeID
	Out  DirLinkID
}

// Graph is an undirected multigraph-free network topology. The zero value is
// an empty graph ready for use.
type Graph struct {
	coords []Point
	links  []Link
	adj    [][]Arc
	// tags carries optional generator metadata (e.g. "transit"/"stub" role).
	tags []string
}

// ErrNoSuchNode reports an out-of-range node reference.
var ErrNoSuchNode = errors.New("topology: no such node")

// NewGraph returns an empty graph with capacity hints for n nodes.
func NewGraph(n int) *Graph {
	return &Graph{
		coords: make([]Point, 0, n),
		adj:    make([][]Arc, 0, n),
		tags:   make([]string, 0, n),
	}
}

// AddNode appends a node at position p and returns its ID.
func (g *Graph) AddNode(p Point) NodeID {
	id := NodeID(len(g.adj))
	g.coords = append(g.coords, p)
	g.adj = append(g.adj, nil)
	g.tags = append(g.tags, "")
	return id
}

// AddTaggedNode appends a node with a generator role tag.
func (g *Graph) AddTaggedNode(p Point, tag string) NodeID {
	id := g.AddNode(p)
	g.tags[id] = tag
	return id
}

// Tag returns the role tag of node n (empty if untagged).
func (g *Graph) Tag(n NodeID) string { return g.tags[n] }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumLinks returns the physical link count.
func (g *Graph) NumLinks() int { return len(g.links) }

// NumDirLinks returns the directed link count (2 per physical link).
func (g *Graph) NumDirLinks() int { return 2 * len(g.links) }

// DirID returns the directed link ID for traversing physical link l
// starting at node from. It panics if from is not an endpoint of l.
func (g *Graph) DirID(l LinkID, from NodeID) DirLinkID {
	link := g.links[l]
	switch from {
	case link.A:
		return DirLinkID(2 * l)
	case link.B:
		return DirLinkID(2*l + 1)
	default:
		panic(fmt.Sprintf("topology: node %d is not an endpoint of link %d (%d-%d)",
			from, l, link.A, link.B))
	}
}

// Pos returns the position of node n.
func (g *Graph) Pos(n NodeID) Point { return g.coords[n] }

// AddLink connects a and b and returns the new link's ID. Self-loops and
// duplicate links are rejected.
func (g *Graph) AddLink(a, b NodeID) (LinkID, error) {
	if int(a) >= len(g.adj) || int(b) >= len(g.adj) || a < 0 || b < 0 {
		return -1, fmt.Errorf("%w: link %d-%d in graph of %d nodes", ErrNoSuchNode, a, b, len(g.adj))
	}
	if a == b {
		return -1, fmt.Errorf("topology: self-loop on node %d", a)
	}
	if g.HasLink(a, b) {
		return -1, fmt.Errorf("topology: duplicate link %d-%d", a, b)
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, A: a, B: b})
	g.adj[a] = append(g.adj[a], Arc{Peer: b, Out: DirLinkID(2 * id)})
	g.adj[b] = append(g.adj[b], Arc{Peer: a, Out: DirLinkID(2*id + 1)})
	return id, nil
}

// HasLink reports whether a and b are directly connected.
func (g *Graph) HasLink(a, b NodeID) bool {
	if int(a) >= len(g.adj) || a < 0 {
		return false
	}
	for _, h := range g.adj[a] {
		if h.Peer == b {
			return true
		}
	}
	return false
}

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Arcs returns the arcs leaving node n, in the order their links were added.
// The slice is the graph's own: read-only. Bounded flooding walks it
// directly, with no call per edge.
func (g *Graph) Arcs(n NodeID) []Arc { return g.adj[n] }

// ForEachNeighbor calls fn for every (peer, link) of node n.
func (g *Graph) ForEachNeighbor(n NodeID, fn func(peer NodeID, link LinkID)) {
	for _, h := range g.adj[n] {
		fn(h.Peer, h.Out.Link())
	}
}

// BFSDist computes hop distances from src to every node; unreachable nodes
// get -1.
func (g *Graph) BFSDist(src NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[u] {
			if dist[h.Peer] < 0 {
				dist[h.Peer] = dist[u] + 1
				queue = append(queue, h.Peer)
			}
		}
	}
	return dist
}

// Components returns the node sets of the connected components.
func (g *Graph) Components() [][]NodeID {
	seen := make([]bool, g.NumNodes())
	var comps [][]NodeID
	for s := 0; s < g.NumNodes(); s++ {
		if seen[s] {
			continue
		}
		var comp []NodeID
		queue := []NodeID{NodeID(s)}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, h := range g.adj[u] {
				if !seen[h.Peer] {
					seen[h.Peer] = true
					queue = append(queue, h.Peer)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
