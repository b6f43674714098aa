package routing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"drqos/internal/rng"
	"drqos/internal/topology"
)

// backupSearch is BackupRoute's signature: the package-level wrapper or a
// reused scratch's method.
type backupSearch func(g *topology.Graph, primary Path, filter LinkFilter) (Path, int, error)

// backupParentHashes[graph][seed-1] is the digest backupDigest produced at
// the parent commit (cebb0d4: container/heap Dijkstra, an onPrimary map and
// fresh arrays per call), where only the package-level BackupRoute existed.
// This file's digest, graphs and trials ran there unchanged.
var backupParentHashes = map[string][5]string{
	"waxman100": {"6d28145398c62bb3", "e3ed54866cec2e39", "19ec0a5ed846b618", "d8d0c200c7fb3fda", "be5f0682cc1a4dd1"},
	"tier100":   {"ff0e8441bb93c97c", "c8892f12dba941c6", "aec18e88e164f0cc", "f3f388f34eac5a06", "f1f065f976ec117f"},
}

func parentGraph(t *testing.T, kind string, seed uint64) *topology.Graph {
	t.Helper()
	var g *topology.Graph
	var err error
	switch kind {
	case "waxman100":
		g, err = topology.Waxman(topology.WaxmanConfig{Nodes: 100, Alpha: 0.33, Beta: 0.1176, EnsureConnected: true}, rng.New(seed))
	case "tier100":
		g, err = topology.TransitStub(topology.DefaultTransitStub(), rng.New(seed))
	default:
		t.Fatalf("unknown graph kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// backupDigest hashes (error class, shared, path) over 300 backup searches
// for random primaries — shortest routes, half of them detouring around one
// banned link — under 0–3 random failed links (a nil filter for 0).
func backupDigest(t *testing.T, g *topology.Graph, seed uint64, search backupSearch) string {
	t.Helper()
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	pick := rng.New(seed*7919 + 13)
	failed := make([]bool, g.NumLinks())
	for trial := 0; trial < 300; trial++ {
		a := topology.NodeID(pick.Intn(g.NumNodes()))
		b := topology.NodeID(pick.Intn(g.NumNodes() - 1))
		if b >= a {
			b++
		}
		var ban LinkFilter
		if pick.Intn(2) == 0 {
			banned := topology.LinkID(pick.Intn(g.NumLinks()))
			ban = func(l topology.LinkID) bool { return l != banned }
		}
		primary, err := ShortestHops(g, a, b, ban)
		if err != nil {
			if primary, err = ShortestHops(g, a, b, nil); err != nil {
				t.Fatal(err)
			}
		}
		clear(failed)
		var filter LinkFilter
		if k := pick.Intn(4); k > 0 {
			for i := 0; i < k; i++ {
				failed[pick.Intn(g.NumLinks())] = true
			}
			filter = func(l topology.LinkID) bool { return !failed[l] }
		}
		p, shared, err := search(g, primary, filter)
		switch {
		case err == nil:
			u64(0)
		case errors.Is(err, ErrNoRoute):
			u64(1)
			continue
		default:
			u64(2)
			continue
		}
		u64(uint64(shared))
		u64(uint64(len(p.Nodes)))
		for _, n := range p.Nodes {
			u64(uint64(n))
		}
		for _, l := range p.Links {
			u64(uint64(l))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestBackupRouteMatchesParent pins the scratch-based search to the boxed
// heap and map it replaced, through both doors: the one-shot wrapper and
// one RouteScratch reused across every graph — including a smaller one run
// in between, so the scratch shrinks in use and grows again.
func TestBackupRouteMatchesParent(t *testing.T) {
	var scratch RouteScratch
	for seed := uint64(1); seed <= 5; seed++ {
		for _, kind := range []string{"waxman100", "tier100"} {
			want := backupParentHashes[kind][seed-1]
			g := parentGraph(t, kind, seed)
			if got := backupDigest(t, g, seed, BackupRoute); got != want {
				t.Errorf("%s seed %d: wrapper digest %s, parent commit produced %s", kind, seed, got, want)
			}
			if got := backupDigest(t, g, seed, scratch.BackupRoute); got != want {
				t.Errorf("%s seed %d: reused scratch digest %s, parent commit produced %s", kind, seed, got, want)
			}
		}
		small := randomWaxman(t, 20+int(seed)*5, seed)
		if fresh, reused := backupDigest(t, small, seed, BackupRoute), backupDigest(t, small, seed, scratch.BackupRoute); fresh != reused {
			t.Errorf("%d-node graph, seed %d: reused scratch digest %s, fresh %s", small.NumNodes(), seed, reused, fresh)
		}
	}
}

// backupBenchCases draws primaries on the seed-1 tier graph whose backup
// search ends in the disjoint BFS, and ones that need the Dijkstra fallback
// (stub gateways are bridges).
func backupBenchCases(b *testing.B) (g *topology.Graph, disjoint, fallback []Path) {
	g, err := topology.TransitStub(topology.DefaultTransitStub(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	pick := rng.New(5)
	for len(disjoint) < 64 || len(fallback) < 64 {
		a := topology.NodeID(pick.Intn(g.NumNodes()))
		c := topology.NodeID(pick.Intn(g.NumNodes() - 1))
		if c >= a {
			c++
		}
		primary, err := ShortestHops(g, a, c, nil)
		if err != nil {
			b.Fatal(err)
		}
		_, shared, err := BackupRoute(g, primary, nil)
		switch {
		case err != nil:
		case shared == 0 && len(disjoint) < 64:
			disjoint = append(disjoint, primary)
		case shared > 0 && len(fallback) < 64:
			fallback = append(fallback, primary)
		}
	}
	return g, disjoint, fallback
}

// BenchmarkBackupRoute is one backup search on a reused scratch, the form
// the manager runs per re-protection; allocs/op is the returned path.
func BenchmarkBackupRoute(b *testing.B) {
	g, disjoint, fallback := backupBenchCases(b)
	for _, bc := range []struct {
		name      string
		primaries []Path
	}{{"disjoint", disjoint}, {"fallback", fallback}} {
		b.Run(bc.name, func(b *testing.B) {
			var s RouteScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.BackupRoute(g, bc.primaries[i%len(bc.primaries)], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
