package routing

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"drqos/internal/rng"
	"drqos/internal/topology"
)

// The parent's bounded flood, kept verbatim (identifiers prefixed with
// parent) as FuzzFloodMatchesParent's reference: it called a DirCost closure
// for every edge it visited and kept the destination's per-link best in a
// map. The production flood reads a per-directed-link allowance slice and
// walks the adjacency arrays; it must return the same candidates, in the
// same order, with the same allowances and the same errors.

// parentLabel is the flooding state at one node: the best allowance seen for a
// given hop count, with back-pointers for route reconstruction.
type parentLabel struct {
	hops      int
	allowance float64
	prevNode  topology.NodeID
	prevLabel int // index into labels[prevNode]; -1 at the source
	link      topology.LinkID
}

// parentRef addresses one label during frontier expansion.
type parentRef struct {
	node topology.NodeID
	idx  int
}

// parentFloodScratch holds the per-simulation working state of BoundedFlood so
// that repeated establishments reuse one set of buffers instead of
// reallocating label tables and frontiers on every request. A scratch is
// NOT safe for concurrent use; give each goroutine (each simulation) its
// own. The zero value is ready to use.
//
// Reuse is transparent: only the returned Candidate paths are freshly
// allocated (callers retain them in connections), everything else is
// recycled across calls, including across calls on different graphs.
type parentFloodScratch struct {
	labels   [][]parentLabel
	touched  []topology.NodeID // nodes whose labels/best need resetting
	best     []float64         // best allowance of any label at the node; -1 = none
	frontier []parentRef
	next     []parentRef
	dstBest  map[topology.LinkID]float64 // per-entry-link best allowance at dst
}

// reset prepares the scratch for a graph with n nodes, clearing only the
// state the previous call dirtied.
func (s *parentFloodScratch) reset(n int) {
	if len(s.labels) != n {
		s.labels = make([][]parentLabel, n)
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
func (s *parentFloodScratch) BoundedFlood(g *topology.Graph, src, dst topology.NodeID, allowance DirCost, cfg FloodConfig) ([]Candidate, error) {
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
	labels[src] = append(labels[src], parentLabel{hops: 0, allowance: 1e300, prevNode: -1, prevLabel: -1, link: -1})
	s.best[src] = 1e300
	s.touched = append(s.touched, src)
	s.frontier = append(s.frontier, parentRef{node: src, idx: 0})

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
				labels[peer] = append(labels[peer], parentLabel{
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
					s.next = append(s.next, parentRef{node: peer, idx: len(labels[peer]) - 1})
				}
			})
		}
		s.frontier, s.next = s.next, s.frontier
	}

	// Every surviving destination label is one arrived request copy.
	out := make([]Candidate, 0, len(labels[dst]))
	for i, l := range labels[dst] {
		out = append(out, Candidate{Path: parentRebuildLabelPath(labels, dst, i), Allowance: l.allowance})
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
	return out, nil
}

// parentRebuildLabelPath materializes one destination label's route. The label's
// hop count is the path length, so both slices are allocated at their exact
// final size and filled back to front — no reversal pass, no intermediate
// reversed copies.
func parentRebuildLabelPath(labels [][]parentLabel, dst topology.NodeID, idx int) Path {
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

// floodAlphabet is the fuzz's allowance alphabet, in multiples of the
// minimum bandwidth: 0 is a failed link, ½ is below the minimum, and the
// rest repeat, because ties are where the dominance order matters.
var floodAlphabet = []float64{0, 0.5, 1, 1, 2, 3}

// floodCase is one flood decoded from fuzz input.
type floodCase struct {
	g        *topology.Graph
	src, dst topology.NodeID
	cfg      FloodConfig
	allow    []float64 // per directed link
}

// decodeFlood reads a flood from data: the graph's size, density and seed,
// the endpoints (equal ones are a refusal to compare), the hop bound and the
// minimum, then one alphabet letter per directed link; links past the
// input's end draw theirs from the seed.
func decodeFlood(t *testing.T, data []byte) floodCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nodes := 10 + next()%91
	beta := []float64{0.1176, 0.35}[next()%2]
	seed := uint64(next())<<8 | uint64(next())
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: nodes, Alpha: 0.33, Beta: beta}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	c := floodCase{g: g, src: topology.NodeID(next() % nodes), dst: topology.NodeID(next() % nodes)}
	c.cfg = FloodConfig{
		HopBound:     1 + next()%16,
		MinBandwidth: []float64{1, 100, 250}[next()%3],
	}
	pick := rng.New(seed + 1)
	c.allow = make([]float64, g.NumDirLinks())
	for d := range c.allow {
		k := pick.Intn(256)
		if len(data) > 0 {
			k = next()
		}
		c.allow[d] = c.cfg.MinBandwidth * floodAlphabet[k%len(floodAlphabet)]
	}
	return c
}

// FuzzFloodMatchesParent holds the array flood, and the DirCost adapter
// over it, to the parent's flood: the same candidates in the same order
// with the same allowances, or the same error text. Each side reuses one
// scratch across inputs, so graphs of every size pass through it.
func FuzzFloodMatchesParent(f *testing.F) {
	f.Add([]byte{90, 0, 0, 1, 0, 99, 15, 1})                   // 100 nodes, end to end
	f.Add([]byte{0, 1, 0, 2, 3, 7, 0, 0, 2, 3, 3, 3, 3, 3, 3}) // one hop, ties at the destination
	f.Add([]byte{40, 0, 1, 1, 5, 5, 7, 2})                     // src == dst
	f.Add([]byte{20, 1, 0, 3, 1, 2, 3, 2, 1, 1, 1, 1, 0, 0})   // failed and thin links
	src := rng.New(17)
	for range 48 {
		data := make([]byte, 8+src.Intn(24))
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
		f.Add(data)
	}
	var scratch FloodScratch
	var parent parentFloodScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFlood(t, data)
		cost := func(l topology.LinkID, from topology.NodeID) float64 { return c.allow[c.g.DirID(l, from)] }
		want, wantErr := parent.BoundedFlood(c.g, c.src, c.dst, cost, c.cfg)
		for _, form := range []string{"Flood", "BoundedFlood"} {
			var got []Candidate
			var err error
			if form == "Flood" {
				got, err = scratch.Flood(c.g, c.src, c.dst, c.allow, c.cfg)
			} else {
				got, err = scratch.BoundedFlood(c.g, c.src, c.dst, cost, c.cfg)
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s %d->%d %+v: error %v, parent %v", form, c.src, c.dst, c.cfg, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %d->%d %+v on %d nodes:\n got    %+v\n parent %+v", form, c.src, c.dst, c.cfg, c.g.NumNodes(), got, want)
			}
		}
	})
}
