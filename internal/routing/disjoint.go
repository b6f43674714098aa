package routing

import (
	"errors"
	"fmt"

	"drqos/internal/topology"
)

// BackupRoute finds a backup route for the given primary path on a fresh
// scratch; see RouteScratch.BackupRoute for the form the manager runs on a
// scratch of its own.
func BackupRoute(g *topology.Graph, primary Path, filter LinkFilter) (Path, int, error) {
	var s RouteScratch
	return s.BackupRoute(g, primary, filter)
}

// BackupRoute finds a backup route for the given primary path: totally
// link-disjoint when one exists, otherwise maximally link-disjoint (the
// paper's footnote 1). filter restricts usable links (nil admits all); links
// of the primary are additionally admitted only in the maximally-disjoint
// fallback. It returns the route and the number of links shared with the
// primary.
func (s *RouteScratch) BackupRoute(g *topology.Graph, primary Path, filter LinkFilter) (Path, int, error) {
	if len(primary.Nodes) < 2 {
		return Path{}, 0, errors.New("routing: primary path has no links")
	}
	src, dst := primary.Src(), primary.Dst()
	if err := checkEndpoints(g, src, dst); err != nil {
		return Path{}, 0, err
	}
	if src == dst {
		return Path{Nodes: []topology.NodeID{src}}, 0, nil
	}
	s.markPrimary(g.NumLinks(), primary.Links)
	disjoint := func(l topology.LinkID) bool { return !s.onPrimary(l) && admits(filter, l) }
	if s.shortestHops(g, src, dst, disjoint) {
		return s.path(src, dst), 0, nil
	}

	// No fully disjoint route: minimize shared links first, hops second, by
	// pricing a shared link above any loop-free detour.
	penalty := float64(g.NumNodes()) * 10
	weight := func(l topology.LinkID) float64 {
		if s.onPrimary(l) {
			return penalty
		}
		return 1
	}
	if !s.dijkstra(g, src, dst, weight, func(l topology.LinkID) bool { return admits(filter, l) }) {
		return Path{}, 0, fmt.Errorf("routing: no backup route %d -> %d: %w: %d -> %d", src, dst, ErrNoRoute, src, dst)
	}
	p := s.path(src, dst)
	shared := p.SharedLinks(primary)
	if shared == len(primary.Links) {
		// The "backup" covers every primary link (typically it IS the
		// primary): any primary failure also kills it, so it provides zero
		// protection and does not satisfy the dependability QoS.
		return Path{}, 0, fmt.Errorf("%w: only routes covering the whole primary remain", ErrNoRoute)
	}
	return p, shared, nil
}
