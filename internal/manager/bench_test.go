package manager_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"drqos/internal/channel"
	"drqos/internal/core"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/topology"
)

// churn is the benchmark daemon's manager under its own workload: the
// seed-1 100-node Waxman graph, drserverd's default admission config, and a
// standing population held level by terminating the oldest connection for
// every one admitted (bench/script's churn-highpop and durable-lowpop, minus
// HTTP). The adaptation kernels cost what the population makes them cost,
// so a benchmark at any other population measures a different program.
type churn struct {
	m     *manager.Manager
	src   *rng.Source
	alive []channel.ConnID // admission order
	// What the admitted arrivals' and the terminations' reports counted.
	direct, indirect, sharers, changes int
}

func newChurn(tb testing.TB, standing int) *churn {
	tb.Helper()
	sys, err := core.NewSystem(core.Options{Seed: 1, Kind: core.TopologyWaxman, Nodes: 100})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := manager.New(sys.Graph(), manager.Config{Capacity: core.PaperCapacity, RequireBackup: true})
	if err != nil {
		tb.Fatal(err)
	}
	c := &churn{m: m, src: rng.New(11)}
	for tries := 0; len(c.alive) < standing; tries++ {
		if tries > 20*standing {
			tb.Fatalf("population stuck at %d of %d", len(c.alive), standing)
		}
		c.establish()
	}
	return c
}

// establish asks for one connection between a random pair and reports
// whether it was admitted.
func (c *churn) establish() bool {
	n := c.m.Graph().NumNodes()
	a := topology.NodeID(c.src.Intn(n))
	b := topology.NodeID(c.src.Intn(n - 1))
	if b >= a {
		b++
	}
	rep, err := c.m.Establish(a, b, qos.DefaultSpec())
	if err != nil {
		return false
	}
	c.alive = append(c.alive, rep.Conn.ID)
	c.direct, c.indirect, c.changes = c.direct+rep.DirectlyChained, c.indirect+rep.IndirectlyChained, c.changes+len(rep.Changes)
	return true
}

// terminateOldest releases the longest-standing connection.
func (c *churn) terminateOldest(tb testing.TB) {
	id := c.alive[0]
	c.alive = c.alive[1:]
	// A link failure may have dropped it already.
	if c.m.Conn(id) == nil {
		return
	}
	rep, err := c.m.Terminate(id)
	if err != nil {
		tb.Fatal(err)
	}
	c.sharers, c.changes = c.sharers+rep.Affected, c.changes+len(rep.Changes)
}

// p50us reports the median of the samples, in microseconds, under name.
func p50us(b *testing.B, name string, samples []time.Duration) {
	if len(samples) == 0 {
		return
	}
	slices.Sort(samples)
	b.ReportMetric(float64(samples[len(samples)/2].Nanoseconds())/1e3, name)
}

// BenchmarkManagerChurn is one establish plus one terminate-oldest at a
// level population; est-p50-µs and term-p50-µs split the pair. Per pair,
// direct/op, indirect/op and sharers/op count the arrival's chained
// populations and the termination's sharers, changes/op both reports' level
// changes, and rounds/op, served/op, pops/op and ids/op the levels the
// filling served as rounds, the candidates it served (one check each), the
// ones of those served from the growth heap, and the connection IDs built
// for reports.
func BenchmarkManagerChurn(b *testing.B) {
	for _, standing := range []int{100, 2000} {
		b.Run(fmt.Sprintf("standing=%d", standing), func(b *testing.B) {
			c := newChurn(b, standing)
			est := make([]time.Duration, 0, b.N)
			term := make([]time.Duration, 0, b.N)
			rounds, served, pops, ids := c.m.KernelCounts()
			c.direct, c.indirect, c.sharers, c.changes = 0, 0, 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				admitted := c.establish()
				t1 := time.Now()
				est = append(est, t1.Sub(t0))
				if admitted {
					c.terminateOldest(b)
					term = append(term, time.Since(t1))
				}
			}
			b.StopTimer()
			p50us(b, "est-p50-µs", est)
			p50us(b, "term-p50-µs", term)
			r, v, p, n := c.m.KernelCounts()
			b.ReportMetric(float64(r-rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(v-served)/float64(b.N), "served/op")
			b.ReportMetric(float64(p-pops)/float64(b.N), "pops/op")
			b.ReportMetric(float64(n-ids)/float64(b.N), "ids/op")
			for name, v := range map[string]int{"direct/op": c.direct, "indirect/op": c.indirect, "sharers/op": c.sharers, "changes/op": c.changes} {
				b.ReportMetric(float64(v)/float64(b.N), name)
			}
			if err := c.m.CheckInvariants(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkManagerFailRepair fails a random link and repairs it again, the
// population topped up (off the clock) after every pair.
func BenchmarkManagerFailRepair(b *testing.B) {
	const standing = 2000
	b.Run(fmt.Sprintf("standing=%d", standing), func(b *testing.B) {
		c := newChurn(b, standing)
		fail := make([]time.Duration, 0, b.N)
		repair := make([]time.Duration, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := topology.LinkID(c.src.Intn(c.m.Graph().NumLinks()))
			t0 := time.Now()
			if _, err := c.m.FailLink(l); err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			if _, err := c.m.RepairLink(l); err != nil {
				b.Fatal(err)
			}
			fail, repair = append(fail, t1.Sub(t0)), append(repair, time.Since(t1))
			b.StopTimer()
			for tries := 0; c.m.AliveCount() < standing && tries < standing; tries++ {
				c.establish()
			}
			b.StartTimer()
		}
		b.StopTimer()
		p50us(b, "fail-p50-µs", fail)
		p50us(b, "repair-p50-µs", repair)
		if err := c.m.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	})
}

// TestEstablishAllocsBounded keeps the per-event maps from creeping back: at
// 2 000 standing connections the map-based kernels allocated 1 955 times per
// establish, the slice-based ones 31 (route discovery, the connection
// and the report's three slices), the set-based ones 35 (in this window
// each new slot still allocates its route array, until a renumbering hands
// the dead slots' arrays back), 35.9 in 14.6 KB per pair over this test's
// window, most of it the report's ID lists. With counted reports and only
// the kept routes copied out of the flood's scratch, a pair allocated 16.7
// times in 3.7 KB (the slot table grows once in the window); without the
// ledger's per-backup copy of the primary's links and the audit tag's
// escaping target, 14.9 times in 3.7 KB. The bound covers an establish and
// the terminate that keeps the population level: 18 allocations catch
// scratch that starts allocating per event, such as a growth heap that does
// not recycle its array or a flood that copies every candidate route, and
// 6 000 bytes a report that lists a chained population again (≈ 8 KB at
// this population). Race instrumentation adds allocations of its own;
// scripts/check.sh runs this test without -race.
func TestEstablishAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2 000-connection population")
	}
	const pairs = 200
	c := newChurn(t, 2000)
	pair := func() {
		if c.establish() {
			c.terminateOldest(t)
		}
	}
	// One P, as testing.AllocsPerRun runs, so no other goroutine's
	// allocations land in the count; one pair first, as it does, to grow
	// the scratch.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pair()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range pairs {
		pair()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / pairs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / pairs
	t.Logf("%.1f allocations, %.0f bytes per establish + terminate at %d standing", allocs, bytes, c.m.AliveCount())
	if allocs > 18 {
		t.Errorf("%.1f allocations per establish + terminate, bound is 18", allocs)
	}
	if bytes > 6000 {
		t.Errorf("%.0f bytes per establish + terminate, bound is 6 000", bytes)
	}
}

// TestFailLinkAllocsBounded is the same gate for failures: a link failure
// and its repair at 2 000 standing connections allocated about 3 680 times
// while every backup search built fresh arrays, an onPrimary map and a boxed
// heap item per push; on the manager's RouteScratch a search allocates the
// route it returns and nothing else, 340 times in all (342 with the
// slot sets, and as many with the searches reading per-link marks). Without
// the ledger's per-backup copy of the primary's links it is 237, and the
// bound 275 keeps the 16 % margin 396 gave over 342.
// Failures drop connections, so between pairs the population is topped back
// up to 2 000, off the count, as BenchmarkManagerFailRepair does.
func TestFailLinkAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2 000-connection population")
	}
	const standing, pairs = 2000, 100
	c := newChurn(t, standing)
	// One P, as testing.AllocsPerRun runs, so no other goroutine's
	// allocations land in the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var mallocs uint64
	for i := 0; i < pairs; i++ {
		l := topology.LinkID(c.src.Intn(c.m.Graph().NumLinks()))
		runtime.ReadMemStats(&before)
		if _, err := c.m.FailLink(l); err != nil {
			t.Fatal(err)
		}
		if _, err := c.m.RepairLink(l); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		for tries := 0; c.m.AliveCount() < standing && tries < standing; tries++ {
			c.establish()
		}
	}
	perPair := float64(mallocs) / pairs
	t.Logf("%.0f allocations per fail + repair at %d standing", perPair, c.m.AliveCount())
	if perPair > 275 {
		t.Errorf("%.0f allocations per fail + repair, bound is 275", perPair)
	}
}

// TestManagerHeapBounded keeps per-connection entries from creeping back
// into the ledger: it builds the benchmark daemon's 2 000-connection
// population, churns it through 2 000 establish + terminate pairs and 20 link
// failures and repairs, and bounds the live heap the manager then holds. The
// ledger's ID-sorted per-link lists of primaries and backups (each backup
// entry with its own copy of the primary's links) held ≈ 1.3 MB of the
// 3 894 KB this measured; with sums and slot sets only it reads 2 561 KB
// (2 598 under -race). The bound is that figure plus 15 %, 2 950 KB: one
// per-link entry per reservation back would break it.
func TestManagerHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2 000-connection population")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := newChurn(t, 2000)
	for range 2000 {
		if c.establish() {
			c.terminateOldest(t)
		}
	}
	for range 20 {
		l := topology.LinkID(c.src.Intn(c.m.Graph().NumLinks()))
		if _, err := c.m.FailLink(l); err != nil {
			t.Fatal(err)
		}
		if _, err := c.m.RepairLink(l); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	runtime.KeepAlive(c)
	t.Logf("%.0f KB live after churn at %d standing", live/1024, c.m.AliveCount())
	if live > 2950<<10 {
		t.Errorf("%.0f KB live after churn, bound is 2 950 KB", live/1024)
	}
}
