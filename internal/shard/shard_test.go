package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/shard"
	"drqos/internal/topology"
)

func tierGraph(t *testing.T, seed uint64) *topology.Graph {
	t.Helper()
	g, err := topology.TransitStub(rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func waxmanGraph(t *testing.T, nodes int, seed uint64) *topology.Graph {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: nodes, Alpha: 0.33, Beta: 0.25,
	}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newCoordinator(t *testing.T, g *topology.Graph, opt shard.Options) *shard.Coordinator {
	t.Helper()
	if opt.Manager.Capacity == 0 {
		opt.Manager.Capacity = 10000
	}
	c, err := shard.New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Shutdown(context.Background()) })
	return c
}

// crossPair finds two stub nodes owned by different shards: their path
// crosses at least one stub run per side plus the transit core, so the 2PC
// always has >= 2 participants.
func crossPair(g *topology.Graph, p *shard.Plan) (src, dst topology.NodeID) {
	src, dst = -1, -1
	for n, s := range p.NodeShard {
		if g.Tag(topology.NodeID(n)) != "stub" {
			continue
		}
		if src == -1 {
			src = topology.NodeID(n)
			continue
		}
		if s != p.NodeShard[src] {
			return src, topology.NodeID(n)
		}
	}
	panic("no cross pair")
}

// intraPair finds a distinct node pair owned by the same shard.
func intraPair(p *shard.Plan) (src, dst topology.NodeID) {
	for n, s := range p.NodeShard {
		if n != 0 && s == p.NodeShard[0] {
			return 0, topology.NodeID(n)
		}
	}
	panic("no intra pair")
}

func fingerprints(t *testing.T, c *shard.Coordinator) []string {
	t.Helper()
	out := make([]string, c.NumShards())
	for i := range out {
		fp, err := c.Shard(i).StateFingerprint(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fp
	}
	return out
}

// population is the reservation-visible state of one shard: what a leaked
// or lingering pinned connection would change. Unlike the full fingerprint
// it excludes the monotonic request counters, which an aborted prepare
// legitimately bumps.
type population struct {
	Alive       int
	Unprotected int
	Hist        []int
	AvgKbps     float64
}

func populations(t *testing.T, c *shard.Coordinator) []population {
	t.Helper()
	out := make([]population, c.NumShards())
	for i := range out {
		st, err := c.Shard(i).Snapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		hist := st.LevelHistogram
		// Trim trailing zero levels: the histogram slice keeps its high-water
		// length after connections leave, which is not a population change.
		for len(hist) > 0 && hist[len(hist)-1] == 0 {
			hist = hist[:len(hist)-1]
		}
		if len(hist) == 0 {
			hist = nil
		}
		out[i] = population{
			Alive: st.Alive, Unprotected: st.Unprotected,
			Hist: hist, AvgKbps: st.AvgBandwidthKbps,
		}
	}
	return out
}

func TestPlanDeterministic(t *testing.T) {
	g := tierGraph(t, 7)
	p1, err := shard.BuildPlan(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := shard.BuildPlan(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.NodeShard, p2.NodeShard) || !reflect.DeepEqual(p1.LinkShard, p2.LinkShard) {
		t.Fatal("same topology and shard count produced different plans")
	}
	if p1.Regions != 4 {
		t.Fatalf("tier topology with 4 transit nodes split into %d regions, want 4", p1.Regions)
	}

	// Every node owned by exactly one shard, every link in exactly one sub.
	ownedNodes, ownedLinks := 0, 0
	for s := 0; s < 4; s++ {
		sub := p1.Subs[s]
		for n, sh := range p1.NodeShard {
			if sh == s {
				ownedNodes++
				if _, ok := sub.LocalNode[topology.NodeID(n)]; !ok {
					t.Fatalf("shard %d missing its own node %d", s, n)
				}
			}
		}
		ownedLinks += len(sub.GlobalLink)
		for gl, ll := range sub.LocalLink {
			if p1.LinkShard[gl] != s {
				t.Fatalf("shard %d holds link %d owned by shard %d", s, gl, p1.LinkShard[gl])
			}
			lk := sub.Graph.Link(ll)
			glk := g.Link(gl)
			if sub.GlobalNode[lk.A] != glk.A || sub.GlobalNode[lk.B] != glk.B {
				t.Fatalf("shard %d link %d endpoint mapping wrong", s, gl)
			}
		}
	}
	if ownedNodes != g.NumNodes() {
		t.Fatalf("shards own %d nodes, graph has %d", ownedNodes, g.NumNodes())
	}
	if ownedLinks != g.NumLinks() {
		t.Fatalf("shard subs hold %d links, graph has %d — capacity must be counted exactly once", ownedLinks, g.NumLinks())
	}

	// Untagged topologies fall back to contiguous node-ID ranges.
	w := waxmanGraph(t, 30, 3)
	pw, err := shard.BuildPlan(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < len(pw.NodeShard); n++ {
		if pw.NodeShard[n] < pw.NodeShard[n-1] {
			t.Fatalf("fallback plan not contiguous at node %d", n)
		}
	}

	// Error cases: out-of-range counts and more shards than regions.
	if _, err := shard.BuildPlan(g, 0); err == nil {
		t.Fatal("BuildPlan accepted 0 shards")
	}
	if _, err := shard.BuildPlan(g, shard.MaxShards+1); err == nil {
		t.Fatal("BuildPlan accepted > MaxShards")
	}
	if _, err := shard.BuildPlan(g, 5); err == nil {
		t.Fatal("BuildPlan split a region: 5 shards over 4 regions")
	}
}

func TestIntraShardEstablish(t *testing.T) {
	g := tierGraph(t, 7)
	c := newCoordinator(t, g, shard.Options{Shards: 4})
	src, dst := intraPair(c.Plan())
	ctx := context.Background()

	res, err := c.Establish(ctx, src, dst, qos.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cross || res.Shard != c.Plan().NodeShard[src] || res.Report == nil {
		t.Fatalf("intra-shard establish misrouted: %+v", res)
	}
	if res.ID%256 != int64(res.Shard) {
		t.Fatalf("external ID %d does not encode shard %d", res.ID, res.Shard)
	}
	if err := c.Terminate(ctx, res.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Terminate(ctx, res.ID); !errors.Is(err, server.ErrNotFound) {
		t.Fatalf("double terminate: got %v, want ErrNotFound", err)
	}
}

func TestCrossShardEstablishCommit(t *testing.T) {
	g := tierGraph(t, 7)
	c := newCoordinator(t, g, shard.Options{Shards: 4})
	src, dst := crossPair(g, c.Plan())
	ctx := context.Background()

	before := populations(t, c)
	res, err := c.Establish(ctx, src, dst, qos.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cross || res.ID%256 != 255 {
		t.Fatalf("cross establish got %+v", res)
	}
	if res.AllocatedKbps != qos.DefaultSpec().Min {
		t.Fatalf("cross connection allocated %v, want rigid Min %v", res.AllocatedKbps, qos.DefaultSpec().Min)
	}
	if _, committed, aborted := c.CrossStats(); committed != 1 || aborted != 0 {
		t.Fatalf("cross stats committed=%d aborted=%d", committed, aborted)
	}
	pinned := 0
	for i := 0; i < c.NumShards(); i++ {
		st := c.Shard(i).StatsView()
		pinned += st.Alive
	}
	if pinned == 0 {
		t.Fatal("commit pinned no local connections")
	}

	if err := c.Terminate(ctx, res.ID); err != nil {
		t.Fatal(err)
	}
	after := populations(t, c)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("terminate did not release every shard's pinned state")
	}
	if err := c.Terminate(ctx, res.ID); !errors.Is(err, server.ErrNotFound) {
		t.Fatalf("double terminate of cross conn: got %v, want ErrNotFound", err)
	}
}

func TestCrossAbortOnPrepareTimeout(t *testing.T) {
	g := tierGraph(t, 7)
	c := newCoordinator(t, g, shard.Options{Shards: 4, PrepareTimeout: time.Nanosecond})
	src, dst := crossPair(g, c.Plan())

	before := fingerprints(t, c)
	_, err := c.Establish(context.Background(), src, dst, qos.DefaultSpec())
	if err == nil {
		t.Fatal("establish succeeded despite unmeetable prepare timeout")
	}
	if _, committed, aborted := c.CrossStats(); committed != 0 || aborted != 1 {
		t.Fatalf("cross stats committed=%d aborted=%d, want 0/1", committed, aborted)
	}
	if after := fingerprints(t, c); !reflect.DeepEqual(before, after) {
		t.Fatal("timed-out prepare leaked pinned state")
	}
}

func TestCrossAbortOnDegradedShard(t *testing.T) {
	g := tierGraph(t, 7)
	c := newCoordinator(t, g, shard.Options{Shards: 4})
	src, dst := crossPair(g, c.Plan())
	ctx := context.Background()

	// Dry run to learn the deterministic participant set, then release it.
	res, err := c.Establish(ctx, src, dst, qos.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	participants := make([]int, 0, 4)
	for i := 0; i < c.NumShards(); i++ {
		if c.Shard(i).StatsView().Alive > 0 {
			participants = append(participants, i)
		}
	}
	if err := c.Terminate(ctx, res.ID); err != nil {
		t.Fatal(err)
	}
	if len(participants) < 2 {
		t.Fatalf("cross path touched %d shards, want >= 2", len(participants))
	}

	// Latch the LAST participant degraded: earlier prepares succeed, its
	// prepare refuses, the coordinator must abort the earlier ones.
	victim := participants[len(participants)-1]
	if err := c.Shard(victim).CorruptForTesting(ctx); err == nil {
		t.Fatal("CorruptForTesting reported clean state")
	}
	if deg, _ := c.Shard(victim).Degraded(); !deg {
		t.Fatal("victim shard not degraded")
	}

	before := populations(t, c)
	if _, err := c.Establish(ctx, src, dst, qos.DefaultSpec()); !errors.Is(err, server.ErrDegraded) {
		t.Fatalf("establish through degraded shard: got %v, want ErrDegraded", err)
	}
	if after := populations(t, c); !reflect.DeepEqual(before, after) {
		t.Fatal("aborted 2PC leaked pinned state on surviving shards")
	}
	if _, _, aborted := c.CrossStats(); aborted != 1 {
		t.Fatalf("aborted=%d, want 1", aborted)
	}
}

// TestCrashBetweenPrepareAndCommit kills the first participant right after
// its prepare is durable, shuts the whole deployment down (no commit was
// journaled anywhere), and restarts it: boot reconciliation must abort the
// in-flight transaction, leaving every shard bit-identical to its
// acknowledged pre-transaction state.
func TestCrashBetweenPrepareAndCommit(t *testing.T) {
	g := tierGraph(t, 7)
	dir := t.TempDir()
	jopt := journal.Options{FsyncEvery: -1}
	var victim int
	opt := shard.Options{
		Shards: 4, Dir: dir, Journal: jopt,
		Manager: manager.Config{Capacity: 10000},
	}
	c, err := shard.New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Acknowledged pre-transaction load: a few intra-shard connections.
	src, dst := intraPair(c.Plan())
	if _, err := c.Establish(ctx, src, dst, qos.DefaultSpec()); err != nil {
		t.Fatal(err)
	}
	cs, cd := crossPair(g, c.Plan())
	res, err := c.Establish(ctx, cs, cd, qos.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	committedCross := res.ID
	beforePop := populations(t, c)

	// Kill the first participant inside the 2PC, after its prepare landed.
	killed := false
	c2 := c // closure target; the hook fires on the same coordinator
	c.SetTestHookAfterPrepare(func(s int, txn uint64) error {
		if killed {
			return nil
		}
		killed = true
		victim = s
		if err := c2.Shard(s).Shutdown(context.Background()); err != nil {
			t.Errorf("victim shutdown: %v", err)
		}
		return fmt.Errorf("chaos: shard %d killed mid-2PC", s)
	})

	if _, err := c.Establish(ctx, cs, cd, qos.DefaultSpec()); err == nil {
		t.Fatal("doomed cross establish succeeded")
	}
	if !killed {
		t.Fatal("test hook never fired")
	}

	// Survivors must carry no trace of the doomed transaction. Capture
	// their live fingerprints — the replay ≡ live baseline for the restart.
	liveFPs := make([]string, c.NumShards())
	for i := 0; i < c.NumShards(); i++ {
		if i == victim {
			continue
		}
		fp, err := c.Shard(i).StateFingerprint(ctx)
		if err != nil {
			t.Fatal(err)
		}
		liveFPs[i] = fp
		st, err := c.Shard(i).Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Alive != beforePop[i].Alive {
			t.Fatalf("surviving shard %d holds %d connections after aborted 2PC, want %d",
				i, st.Alive, beforePop[i].Alive)
		}
	}

	// Full crash: down everything, restart on the same directories.
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	c, err = shard.New(g, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Survivors replay bit-identically to their live state; the victim's
	// orphaned prepare is reconciled away, so every shard's reservation
	// population matches the acknowledged prefix.
	afterFPs := fingerprints(t, c)
	for i := 0; i < c.NumShards(); i++ {
		if i != victim && afterFPs[i] != liveFPs[i] {
			t.Fatalf("surviving shard %d replayed to a different state than it served live", i)
		}
	}
	if afterPop := populations(t, c); !reflect.DeepEqual(beforePop, afterPop) {
		t.Fatalf("replayed populations diverged from acknowledged prefix:\n before %+v\n after  %+v", beforePop, afterPop)
	}

	// A second restart is a fixed point: reconciliation already resolved
	// everything, so replay is deterministic down to the last bit.
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	c, err = shard.New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(ctx)
	if again := fingerprints(t, c); !reflect.DeepEqual(afterFPs, again) {
		t.Fatalf("second restart changed state:\n first  %v\n second %v", afterFPs, again)
	}
	// The committed cross connection survived the crash and terminates.
	if err := c.Terminate(ctx, committedCross); err != nil {
		t.Fatalf("committed cross connection lost in crash: %v", err)
	}
	// And the plane still admits new work, intra and cross.
	if _, err := c.Establish(ctx, cs, cd, qos.DefaultSpec()); err != nil {
		t.Fatalf("post-recovery cross establish: %v", err)
	}
}

// TestSingleShardBitIdentical drives the same operation sequence through a
// 1-shard coordinator and a standalone server and requires bit-identical
// journals and state fingerprints: -shards 1 IS the old plane.
func TestSingleShardBitIdentical(t *testing.T) {
	g := tierGraph(t, 7)
	jopt := journal.Options{FsyncEvery: -1}
	mcfg := manager.Config{Capacity: 10000}

	cdir := t.TempDir()
	c := newCoordinator(t, g, shard.Options{Shards: 1, Dir: cdir, Journal: jopt, Manager: mcfg})

	sdir := t.TempDir()
	jnl, _, err := journal.Open(sdir, jopt)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	mgr, err := manager.New(g, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.NewFromManager(g, mgr, server.Options{Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	ctx := context.Background()
	r := rng.New(42)
	var ids []int64
	for i := 0; i < 40; i++ {
		src := topology.NodeID(r.Intn(g.NumNodes()))
		dst := topology.NodeID(r.Intn(g.NumNodes()))
		if src == dst {
			continue
		}
		cres, cerr := c.Establish(ctx, src, dst, qos.DefaultSpec())
		srep, serr := s.Establish(ctx, src, dst, qos.DefaultSpec())
		if (cerr == nil) != (serr == nil) {
			t.Fatalf("establish %d→%d: coordinator err %v, server err %v", src, dst, cerr, serr)
		}
		if cerr == nil {
			// With one shard the external ID is localID*256+0.
			if cres.ID != int64(srep.Conn.ID)*256 {
				t.Fatalf("ID drift: coordinator %d, server conn %d", cres.ID, srep.Conn.ID)
			}
			ids = append(ids, cres.ID)
		}
	}
	if len(ids) < 5 {
		t.Fatalf("only %d establishes landed", len(ids))
	}
	// Terminate before the fault injection: link 0's failure may legally
	// drop the connection, and a dropped ID answers ErrNotFound.
	if err := c.Terminate(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Terminate(ctx, channel.ConnID(ids[0]/256)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailLink(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FailLink(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RepairLink(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RepairLink(ctx, 0); err != nil {
		t.Fatal(err)
	}

	cfp, err := c.Shard(0).StateFingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sfp, err := s.StateFingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cfp != sfp {
		t.Fatalf("state fingerprints diverged:\n shard      %s\n standalone %s", cfp, sfp)
	}

	// Journal bytes must match record-for-record.
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	compareDirs(t, filepath.Join(cdir, "shard-000"), sdir)
}

func compareDirs(t *testing.T, a, b string) {
	t.Helper()
	ae, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	be, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ae) != len(be) {
		t.Fatalf("journal dirs differ: %d vs %d files", len(ae), len(be))
	}
	for i := range ae {
		if ae[i].Name() != be[i].Name() {
			t.Fatalf("journal file name drift: %s vs %s", ae[i].Name(), be[i].Name())
		}
		ab, err := os.ReadFile(filepath.Join(a, ae[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(b, be[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("journal file %s not bit-identical (%d vs %d bytes)", ae[i].Name(), len(ab), len(bb))
		}
	}
}

// TestCrossCountersSurviveRestart drives committed and aborted cross-shard
// transactions, snapshots every shard, restarts the whole deployment from
// disk, and asserts the coordinator-level 2PC counters (the source of
// drqos_cross_{establish,commit,abort}_total) are preserved and keep
// counting from where they left off.
func TestCrossCountersSurviveRestart(t *testing.T) {
	g := tierGraph(t, 7)
	dir := t.TempDir()
	opt := shard.Options{
		Shards: 4, Dir: dir, Journal: journal.Options{FsyncEvery: 1},
		Manager: manager.Config{Capacity: 10000},
	}
	c, err := shard.New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src, dst := crossPair(g, c.Plan())

	for i := 0; i < 2; i++ {
		res, err := c.Establish(ctx, src, dst, qos.DefaultSpec())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cross {
			t.Fatalf("establish %d did not cross shards", i)
		}
	}
	c.SetTestHookAfterPrepare(func(int, uint64) error { return errors.New("injected prepare failure") })
	if _, err := c.Establish(ctx, src, dst, qos.DefaultSpec()); err == nil {
		t.Fatal("establish succeeded despite injected prepare failure")
	}
	c.SetTestHookAfterPrepare(nil)
	if att, com, abo := c.CrossStats(); att != 3 || com != 2 || abo != 1 {
		t.Fatalf("pre-restart cross stats %d/%d/%d, want 3/2/1", att, com, abo)
	}

	// The counters travel in snapshot headers, so force one per shard before
	// shutting down.
	for i := 0; i < c.NumShards(); i++ {
		if err := c.Shard(i).SnapshotNow(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	c2 := newCoordinator(t, g, opt)
	if att, com, abo := c2.CrossStats(); att != 3 || com != 2 || abo != 1 {
		t.Fatalf("post-restart cross stats %d/%d/%d, want 3/2/1", att, com, abo)
	}
	// And the restored baseline keeps counting.
	if _, err := c2.Establish(ctx, src, dst, qos.DefaultSpec()); err != nil {
		t.Fatal(err)
	}
	if att, com, abo := c2.CrossStats(); att != 4 || com != 3 || abo != 1 {
		t.Fatalf("post-restart establish cross stats %d/%d/%d, want 4/3/1", att, com, abo)
	}
}

// TestSerialScriptWritesIdenticalJournals: one serial script — establishes
// within and across shards, terminations, and failures of transit links
// that tear down several cross-shard connections at once — run twice on
// four journaled shards writes the same bytes into every shard's journal.
// A failure's cross-shard teardowns go out in transaction order, not map
// order.
func TestSerialScriptWritesIdenticalJournals(t *testing.T) {
	g := tierGraph(t, 1)
	var transit []topology.LinkID
	for id := 0; id < g.NumLinks(); id++ {
		if l := g.Link(topology.LinkID(id)); g.Tag(l.A) == "transit" && g.Tag(l.B) == "transit" {
			transit = append(transit, l.ID)
		}
	}
	run := func() string {
		dir := t.TempDir()
		c := newCoordinator(t, g, shard.Options{Shards: 4, Dir: dir, Journal: journal.Options{FsyncEvery: -1}})
		ctx := context.Background()
		r := rng.New(5)
		var ids []int64
		down := topology.LinkID(-1)
		for i := 0; i < 600; i++ {
			switch x := r.Float64(); {
			case x < 0.05:
				if down >= 0 {
					if _, err := c.RepairLink(ctx, down); err != nil {
						t.Fatal(err)
					}
				}
				down = transit[r.Intn(len(transit))]
				if _, err := c.FailLink(ctx, down); err != nil {
					t.Fatal(err)
				}
			case x < 0.35 && len(ids) > 0:
				k := r.Intn(len(ids))
				if err := c.Terminate(ctx, ids[k]); err != nil && !errors.Is(err, server.ErrNotFound) {
					t.Fatal(err)
				}
				ids = append(ids[:k], ids[k+1:]...)
			default:
				src, dst := topology.NodeID(r.Intn(g.NumNodes())), topology.NodeID(r.Intn(g.NumNodes()))
				if src == dst {
					continue
				}
				if res, err := c.Establish(ctx, src, dst, qos.DefaultSpec()); err == nil {
					ids = append(ids, res.ID)
				}
			}
		}
		if err := c.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	a, b := run(), run()
	for i := 0; i < 4; i++ {
		shardDir := fmt.Sprintf("shard-%03d", i)
		compareDirs(t, filepath.Join(a, shardDir), filepath.Join(b, shardDir))
	}
}

// TestResolverRecommitsInTxnOrder: six cross establishes whose commit to
// their last participant fails leave six pending re-commits; one
// ResolvePending after the failure clears writes them into that shard's
// journal in transaction order, not map order.
func TestResolverRecommitsInTxnOrder(t *testing.T) {
	g := tierGraph(t, 1)
	dir := t.TempDir()
	type resolving struct{}
	victim := -1
	var commits []int // shards of the first establish's commits, in order
	c := newCoordinator(t, g, shard.Options{
		Shards: 4, Dir: dir, Journal: journal.Options{FsyncEvery: -1},
		Invoke: func(ctx context.Context, s int, phase string, call func(context.Context) error) error {
			if phase != "commit" {
				return call(ctx)
			}
			if victim < 0 {
				commits = append(commits, s)
			} else if s == victim && ctx.Value(resolving{}) == nil {
				// Only the test's own resolve pass gets through: the
				// background resolver must not drain the queue first.
				return errors.New("injected commit failure")
			}
			return call(ctx)
		},
	})
	ctx := context.Background()
	src, dst := crossPair(g, c.Plan())
	if res, err := c.Establish(ctx, src, dst, qos.DefaultSpec()); err != nil || !res.Cross {
		t.Fatalf("first cross establish: %+v, %v", res, err)
	}
	victim = commits[len(commits)-1]
	for i := 0; i < 6; i++ {
		if _, err := c.Establish(ctx, src, dst, qos.DefaultSpec()); err != nil {
			t.Fatalf("cross establish %d: %v", i, err)
		}
	}
	if n := c.PendingResolutions(); n != 6 {
		t.Fatalf("%d pending resolutions, want 6", n)
	}
	if n := c.ResolvePending(context.WithValue(ctx, resolving{}, true)); n != 6 {
		t.Fatalf("ResolvePending resolved %d, want 6", n)
	}
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	jnl, rec, err := journal.Open(filepath.Join(dir, fmt.Sprintf("shard-%03d", victim)), journal.Options{FsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	var order []uint64
	for _, ev := range rec.Events {
		if ev.Kind == journal.KindCommit {
			order = append(order, ev.Txn)
		}
	}
	if want := []uint64{1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(order, want) {
		t.Fatalf("shard %d journals commits for txns %v, want %v", victim, order, want)
	}
}

// TestBootRecommitsLostCommit: a cross establish whose commit to its last
// participant fails leaves that participant holding the prepare
// uncommitted. A restart without resolving commits it there (committed on
// one shard, so committed on the rest): nothing stays pending, the victim's
// journal ends with the commit, a second restart changes nothing, and the
// connection's own ID releases every piece.
func TestBootRecommitsLostCommit(t *testing.T) {
	g := tierGraph(t, 1)
	dir := t.TempDir()
	opt := shard.Options{
		Shards: 4, Dir: dir, Journal: journal.Options{FsyncEvery: -1},
		Manager: manager.Config{Capacity: 10000},
	}
	victim := -1
	var commits []int // shards of the first establish's commits, in order
	failing := opt
	failing.Invoke = func(ctx context.Context, s int, phase string, call func(context.Context) error) error {
		if phase == "commit" {
			if victim < 0 {
				commits = append(commits, s)
			} else if s == victim {
				return errors.New("injected commit failure")
			}
		}
		return call(ctx)
	}
	c, err := shard.New(g, failing)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src, dst := crossPair(g, c.Plan())
	first, err := c.Establish(ctx, src, dst, qos.DefaultSpec())
	if err != nil || !first.Cross {
		t.Fatalf("first cross establish: %+v, %v", first, err)
	}
	if err := c.Terminate(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	victim = commits[len(commits)-1]
	res, err := c.Establish(ctx, src, dst, qos.DefaultSpec())
	if err != nil {
		t.Fatalf("cross establish with a lost commit: %v", err)
	}
	if n := c.PendingResolutions(); n != 1 {
		t.Fatalf("%d pending resolutions, want 1", n)
	}
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	c, err = shard.New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.PendingResolutions(); n != 0 {
		t.Fatalf("%d pending resolutions after boot, want 0", n)
	}
	fps := fingerprints(t, c)
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	jnl, rec, err := journal.Open(filepath.Join(dir, fmt.Sprintf("shard-%03d", victim)), opt.Journal)
	if err != nil {
		t.Fatal(err)
	}
	last := rec.Events[len(rec.Events)-1]
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	if txn := uint64(res.ID / 256); last.Kind != journal.KindCommit || last.Txn != txn {
		t.Fatalf("shard %d journal ends with %s of txn %d, want the commit of txn %d", victim, last.Kind, last.Txn, txn)
	}

	c = newCoordinator(t, g, opt)
	if again := fingerprints(t, c); !reflect.DeepEqual(fps, again) {
		t.Fatalf("second restart changed state:\n first  %v\n second %v", fps, again)
	}
	if err := c.Terminate(ctx, res.ID); err != nil {
		t.Fatalf("terminate the recommitted connection: %v", err)
	}
	for i, p := range populations(t, c) {
		if p.Alive != 0 {
			t.Fatalf("shard %d holds %d connections after the terminate, want 0", i, p.Alive)
		}
	}
}

// TestCrossShardCommitUnacknowledged503: a cross establish whose commit no
// participant acknowledges is not a success, since a restart would presume
// abort. It answers 503 naming the connection's ID and saying the outcome
// is pending. Once the failure lifts, the background resolver lands the
// commit, and every participant holds its piece across two restarts.
func TestCrossShardCommitUnacknowledged503(t *testing.T) {
	g := tierGraph(t, 1)
	opt := shard.Options{
		Shards: 4, Dir: t.TempDir(), Journal: journal.Options{FsyncEvery: -1},
		Manager: manager.Config{Capacity: 10000},
	}
	var failing atomic.Bool
	failing.Store(true)
	var mu sync.Mutex
	var participants []int
	hooked := opt
	hooked.Invoke = func(ctx context.Context, s int, phase string, call func(context.Context) error) error {
		if phase == "commit" && failing.Load() {
			mu.Lock()
			if !slices.Contains(participants, s) {
				participants = append(participants, s)
			}
			mu.Unlock()
			return errors.New("injected commit failure")
		}
		return call(ctx)
	}
	c, err := shard.New(g, hooked)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src, dst := crossPair(g, c.Plan())
	const id = 1*256 + 255 // the plane's first transaction, as a cross ID
	res, err := c.Establish(ctx, src, dst, qos.DefaultSpec())
	if !errors.Is(err, server.ErrUnavailable) {
		t.Fatalf("establish with every commit failing answered %+v, %v; want server.ErrUnavailable", res, err)
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprint(id)) || !strings.Contains(msg, "pending") {
		t.Fatalf("503 message %q does not name connection %d as pending", msg, id)
	}
	if n := c.PendingResolutions(); n != 1 {
		t.Fatalf("%d pending resolutions, want 1", n)
	}

	failing.Store(false)
	for deadline := time.Now().Add(10 * time.Second); c.PendingResolutions() != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the resolver did not deliver the commit within 10s of the failure lifting")
		}
	}
	mu.Lock()
	owed := slices.Clone(participants)
	mu.Unlock()
	if len(owed) < 2 {
		t.Fatalf("commit owed by shards %v, want at least two participants", owed)
	}
	want := populations(t, c)
	for _, s := range owed {
		if want[s].Alive == 0 {
			t.Fatalf("participant shard %d holds no piece after the resolver delivered", s)
		}
	}
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	c, err = shard.New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := populations(t, c); !reflect.DeepEqual(got, want) {
		t.Fatalf("first restart: populations %+v, want %+v", got, want)
	}
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	c = newCoordinator(t, g, opt)
	if got := populations(t, c); !reflect.DeepEqual(got, want) {
		t.Fatalf("second restart: populations %+v, want %+v", got, want)
	}
	if err := c.Terminate(ctx, id); err != nil {
		t.Fatalf("terminate connection %d: %v", id, err)
	}
	for i, p := range populations(t, c) {
		if p.Alive != 0 {
			t.Fatalf("shard %d holds %d connections after the terminate, want 0", i, p.Alive)
		}
	}
}

// pinnedLinks lists the global links every shard's alive connections hold
// on their primary paths, read from each shard's exported state.
func pinnedLinks(t *testing.T, c *shard.Coordinator) []topology.LinkID {
	t.Helper()
	var links []topology.LinkID
	for i := 0; i < c.NumShards(); i++ {
		_, st, err := c.Shard(i).ExportState(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range st.Conns {
			for _, l := range cs.Primary.Links {
				links = append(links, c.Plan().Subs[i].GlobalLink[l])
			}
		}
	}
	return links
}

// TestFailedLinksSurviveRestart: a failed transit link stays failed across
// a restart of a journaled plane. The aggregated failed_links read the same
// before and after, cross establishes route around the link, and
// RepairLink finds it failed.
func TestFailedLinksSurviveRestart(t *testing.T) {
	g := tierGraph(t, 1)
	dir := t.TempDir()
	opt := shard.Options{
		Shards: 4, Dir: dir, Journal: journal.Options{FsyncEvery: -1},
		Manager: manager.Config{Capacity: 10000},
	}
	c, err := shard.New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src, dst := crossPair(g, c.Plan())
	// Fail a transit link the pair's route crosses, so a plane that forgot
	// the failure would route over it again.
	res, err := c.Establish(ctx, src, dst, qos.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	down := topology.LinkID(-1)
	for _, l := range pinnedLinks(t, c) {
		if lk := g.Link(l); g.Tag(lk.A) == "transit" && g.Tag(lk.B) == "transit" {
			down = l
			break
		}
	}
	if down < 0 {
		t.Fatal("the cross route crosses no transit link")
	}
	if err := c.Terminate(ctx, res.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailLink(ctx, down); err != nil {
		t.Fatal(err)
	}
	failedLinks := func(c *shard.Coordinator) []int {
		rec := httptest.NewRecorder()
		shard.NewHandler(c).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
		var body struct {
			Aggregate struct {
				FailedLinks []int `json:"failed_links"`
			} `json:"aggregate"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		return body.Aggregate.FailedLinks
	}
	before := failedLinks(c)
	if want := []int{int(down)}; !slices.Equal(before, want) {
		t.Fatalf("failed_links %v before the restart, want %v", before, want)
	}
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	c = newCoordinator(t, g, opt)
	if after := failedLinks(c); !slices.Equal(after, before) {
		t.Fatalf("failed_links %v after the restart, want %v", after, before)
	}
	if _, err := c.Establish(ctx, src, dst, qos.DefaultSpec()); err != nil {
		t.Fatalf("cross establish around the failed link: %v", err)
	}
	for _, l := range pinnedLinks(t, c) {
		if l == down {
			t.Fatalf("a cross connection established after the restart pins failed link %d", down)
		}
	}
	if _, err := c.RepairLink(ctx, down); err != nil {
		t.Fatalf("repair after the restart: %v", err)
	}
	if after := failedLinks(c); len(after) != 0 {
		t.Fatalf("failed_links %v after the repair, want none", after)
	}
}
