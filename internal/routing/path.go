// Package routing implements route selection for real-time channels: plain
// shortest-path searches, Yen's k-shortest paths, the distributed
// bounded-flooding discovery with bandwidth allowances that the paper's
// network manager uses (§2.1.1, §3.1), and link-disjoint backup-route
// selection (totally disjoint when possible, maximally disjoint otherwise,
// per the paper's footnote 1).
package routing

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"drqos/internal/topology"
)

// ErrNoRoute is returned when no feasible route exists.
var ErrNoRoute = errors.New("routing: no feasible route")

// Path is a loop-free route: n nodes joined by n-1 links.
type Path struct {
	Nodes []topology.NodeID
	Links []topology.LinkID
}

// Hops returns the number of links in the path.
func (p Path) Hops() int { return len(p.Links) }

// Src returns the first node; it panics on an empty path.
func (p Path) Src() topology.NodeID { return p.Nodes[0] }

// Dst returns the last node; it panics on an empty path.
func (p Path) Dst() topology.NodeID { return p.Nodes[len(p.Nodes)-1] }

// String renders the path as "0 -> 3 -> 7".
func (p Path) String() string {
	parts := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return strings.Join(parts, " -> ")
}

// Validate checks structural consistency against a graph: nodes and links
// in range, consecutive nodes joined by the listed links, no repeated nodes.
func (p Path) Validate(g *topology.Graph) error {
	if len(p.Nodes) == 0 {
		return errors.New("routing: empty path")
	}
	if len(p.Links) != len(p.Nodes)-1 {
		return fmt.Errorf("routing: %d nodes but %d links", len(p.Nodes), len(p.Links))
	}
	seen := make(map[topology.NodeID]bool, len(p.Nodes))
	for _, n := range p.Nodes {
		if n < 0 || int(n) >= g.NumNodes() {
			return fmt.Errorf("routing: node %d out of range", n)
		}
		if seen[n] {
			return fmt.Errorf("routing: node %d repeated", n)
		}
		seen[n] = true
	}
	for i, l := range p.Links {
		if l < 0 || int(l) >= g.NumLinks() {
			return fmt.Errorf("routing: link %d out of range", l)
		}
		link := g.Link(l)
		a, b := p.Nodes[i], p.Nodes[i+1]
		if !(link.A == a && link.B == b || link.A == b && link.B == a) {
			return fmt.Errorf("routing: link %d does not join %d-%d", l, a, b)
		}
	}
	return nil
}

// SharedLinks returns how many links p and q have in common: the number of
// q's links that also appear in p. Routes are a few hops long, so a scan
// beats building a set.
func (p Path) SharedLinks(q Path) int {
	var n int
	for _, l := range q.Links {
		if slices.Contains(p.Links, l) {
			n++
		}
	}
	return n
}

// Clone returns a copy of p that shares no array with it.
func (p Path) Clone() Path {
	return Path{Nodes: slices.Clone(p.Nodes), Links: slices.Clone(p.Links)}
}

// Equal reports whether two paths traverse identical node sequences.
func (p Path) Equal(q Path) bool {
	if len(p.Nodes) != len(q.Nodes) {
		return false
	}
	for i, n := range p.Nodes {
		if q.Nodes[i] != n {
			return false
		}
	}
	return true
}

// DirLinks returns the directed link IDs the path traverses, in order.
// Bandwidth reservations are per direction; use this whenever querying the
// resource ledger.
func (p Path) DirLinks(g *topology.Graph) []topology.DirLinkID {
	return p.AppendDirLinks(make([]topology.DirLinkID, 0, len(p.Links)), g)
}

// AppendDirLinks appends DirLinks(g) to dst and returns it, for callers
// that keep a buffer or a per-connection cache.
func (p Path) AppendDirLinks(dst []topology.DirLinkID, g *topology.Graph) []topology.DirLinkID {
	for i, l := range p.Links {
		dst = append(dst, g.DirID(l, p.Nodes[i]))
	}
	return dst
}

// LinkFilter reports whether a physical link may be used by a search. A nil
// LinkFilter admits every link. Filters are direction-agnostic because they
// express physical conditions (failure, disjointness).
type LinkFilter func(topology.LinkID) bool

// DirCost returns a direction-dependent value (e.g. residual bandwidth) for
// traversing link l starting at node from.
type DirCost func(l topology.LinkID, from topology.NodeID) float64
