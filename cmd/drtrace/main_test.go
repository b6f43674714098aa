package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"drqos/internal/core"
	"drqos/internal/journal"
	"drqos/internal/qos"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// meta is the marker drsim and drserverd write for -nodes 40
// -no-require-backup: a tree-like topology where failures drop connections.
var meta = core.DataMeta{Kind: "waxman", Nodes: 40, Seed: 1, CapacityKbps: int64(core.PaperCapacity),
	Policy: "coefficient", Multiplex: true}

// traced runs opts through the simulator into a fresh directory, as drsim
// -trace does, and returns the directory with the run's evaluation.
func traced(t *testing.T, opts core.Options) (string, *core.Evaluation) {
	t.Helper()
	dir := t.TempDir()
	jnl, err := core.OpenTrace(dir, core.DataMeta{Kind: "waxman", Nodes: opts.Nodes, Seed: opts.Seed,
		CapacityKbps: int64(core.PaperCapacity), Policy: "coefficient", RequireBackup: !opts.NoRequireBackup, Multiplex: true})
	if err != nil {
		t.Fatal(err)
	}
	opts.Trace = jnl
	sys, err := core.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sys.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, ev
}

// TestSummarizeSimDir: the directory drsim -trace writes holds the whole run
// — a snapshot where measurement started plus the record tail after it —
// and the tail is the measured window: it holds the accepted arrivals,
// terminations and failures the run measured its rates from, and the
// trajectory ends at the run's final state.
func TestSummarizeSimDir(t *testing.T) {
	opts := core.Options{
		Seed: meta.Seed, Nodes: meta.Nodes, NoRequireBackup: true,
		Gamma: 0.0005, RepairRate: 0.01,
		InitialConns: 300, ChurnEvents: 300, WarmupEvents: 50,
	}
	dir, ev := traced(t, opts)
	res := ev.Sim
	if res.Failures == 0 || res.Dropped == 0 {
		t.Fatalf("the run must drop connections on failures to mean anything: %+v", res)
	}

	s, err := summarize(dir, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int64(s.snapshotSeq)+int64(s.records), res.Offered+res.Terminated+res.Failures+res.Repairs; s.snapshotSeq == 0 || got != want {
		t.Errorf("snapshot at seq %d + %d records, the run applied %d events", s.snapshotSeq, s.records, want)
	}
	for kind, rate := range map[string]float64{
		"establish": res.EffectiveLambda, "terminate": res.EffectiveMu, "fail_link": res.EffectiveGamma,
	} {
		if want := int(math.Round(rate * res.Duration)); s.counts[kind] != want {
			t.Errorf("%s: %d records in the tail, the run measured %d", kind, s.counts[kind], want)
		}
	}
	if s.impact.N() != s.counts["fail_link"] || s.dropped == 0 {
		t.Errorf("failure impact over %d failures with %d dropped, the tail holds %d failures",
			s.impact.N(), s.dropped, s.counts["fail_link"])
	}
	last := s.points[len(s.points)-1]
	if len(s.points) != 4 || last.alive != res.AliveAtEnd || last.avgBW != res.FinalAvgBandwidth {
		t.Errorf("trajectory %+v ends elsewhere than the run (alive %d, %.1f Kb/s)", s.points, res.AliveAtEnd, res.FinalAvgBandwidth)
	}
}

// TestModelIsTheRunsOwn: from a traced run's directory alone, drtrace
// measures exactly what the run's estimator measured — the tail after the
// snapshot is the measured window, replayed through the same Observe — and
// solves to the run's models: the paper model up to scaling every rate by
// one factor, the restart model up to N̄ taken at Poisson epochs instead of
// over time.
func TestModelIsTheRunsOwn(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, gamma := range []float64{0, 1e-4} {
			t.Run(fmt.Sprintf("seed=%d/gamma=%g", seed, gamma), func(t *testing.T) {
				dir, ev := traced(t, core.Options{Seed: seed, Nodes: 100, Gamma: gamma,
					InitialConns: 1000, ChurnEvents: 1000, WarmupEvents: 200})
				s, err := summarize(dir, 1, 0)
				if err != nil {
					t.Fatal(err)
				}
				md, res := s.model, ev.Sim
				if md == nil {
					t.Fatalf("no model: %s", s.noModel)
				}
				if gamma > 0 && md.failed == 0 {
					t.Fatal("the run must fail links to mean anything")
				}
				var pfFail float64
				for _, term := range res.GeneralTerms {
					if term.Name == "failure" {
						pfFail = term.Weight
					}
				}
				p, q := md.params, res.Params
				if p.Pf != q.Pf || p.Ps != q.Ps || md.pfFail != pfFail {
					t.Errorf("Pf/Ps/PfFail %v/%v/%v, the run measured %v/%v/%v", p.Pf, p.Ps, md.pfFail, q.Pf, q.Ps, pfFail)
				}
				if !reflect.DeepEqual(p.A, q.A) || !reflect.DeepEqual(p.B, q.B) || !reflect.DeepEqual(p.T, q.T) {
					t.Errorf("jump matrices differ from the run's:\n A %v\n   %v\n B %v\n   %v\n T %v\n   %v", p.A, q.A, p.B, q.B, p.T, q.T)
				}
				if md.da != res.DiscardedA || md.db != res.DiscardedB || md.dt != res.DiscardedT {
					t.Errorf("discarded mass %v/%v/%v, the run's %v/%v/%v", md.da, md.db, md.dt, res.DiscardedA, res.DiscardedB, res.DiscardedT)
				}
				if !reflect.DeepEqual(md.birth, res.BirthDist) {
					t.Errorf("birth distribution %v, the run's %v", md.birth, res.BirthDist)
				}
				for _, r := range []struct {
					name      string
					got, want float64
				}{
					{"μ/λ", p.Mu, res.EffectiveMu / res.EffectiveLambda},
					{"γ/λ", p.Gamma, res.EffectiveGamma / res.EffectiveLambda},
				} {
					if math.Abs(r.got-r.want) > 1e-12*math.Abs(r.want) {
						t.Errorf("%s = %v, the run's %v", r.name, r.got, r.want)
					}
				}
				if d := math.Abs(md.paper.mean - ev.PaperModel.MeanBandwidth); d > 1e-9 {
					t.Errorf("paper-model mean %v, the run's %v", md.paper.mean, ev.PaperModel.MeanBandwidth)
				}
				for i, pi := range md.paper.pi {
					if d := math.Abs(pi - ev.PaperModel.Pi[i]); d > 1e-9 {
						t.Errorf("paper-model pi[%d] = %v, the run's %v", i, pi, ev.PaperModel.Pi[i])
					}
				}
				if d := math.Abs(md.restart.mean/ev.RestartModel.MeanBandwidth - 1); d > 5e-4 {
					t.Errorf("restart-model mean %v, the run's %v (%.4f%% apart)", md.restart.mean, ev.RestartModel.MeanBandwidth, 100*d)
				}
				t.Logf("N̄ %.2f (run %.2f), restart mean %.4f (run %.4f)", md.avgAlive, res.AvgAlive, md.restart.mean, ev.RestartModel.MeanBandwidth)
			})
		}
	}
}

// TestSummarizeDaemonDir: over a daemon's directory holding a snapshot, the
// summary starts from the snapshot and covers only the tail after it.
func TestSummarizeDaemonDir(t *testing.T) {
	dir := t.TempDir()
	if err := core.CheckMeta(dir, meta); err != nil {
		t.Fatal(err)
	}
	sys, mcfg, err := meta.Build()
	if err != nil {
		t.Fatal(err)
	}
	jnl, rec, err := journal.Open(dir, journal.Options{FsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := server.Rebuild(sys.Graph(), mcfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewFromManager(sys.Graph(), m, server.Options{Journal: jnl, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 11; i++ {
		if _, err := srv.Establish(ctx, 0, topology.NodeID(1+i), qos.DefaultSpec()); err != nil {
			t.Fatalf("establish %d: %v", i, err)
		}
	}
	if _, err := srv.Terminate(ctx, 2); err != nil {
		t.Fatal(err)
	}
	st, err := srv.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := summarize(dir, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.snapshotSeq != 8 || s.records != 4 || s.counts["establish"] != 3 || s.counts["terminate"] != 1 {
		t.Fatalf("want the 4-record tail after the snapshot at seq 8, got %+v", s)
	}
	if last := s.points[len(s.points)-1]; last.seq != 12 || last.alive != st.Alive {
		t.Fatalf("trajectory ends at %+v, the daemon at seq 12 with %d alive", last, st.Alive)
	}
}

// TestSummarizeRefusesShardedDir: a sharded directory is not one plane, and
// the refusal names the marker that says so.
func TestSummarizeRefusesShardedDir(t *testing.T) {
	dir := t.TempDir()
	sharded := meta
	sharded.Kind, sharded.Shards = "tier", 4
	if err := core.CheckMeta(dir, sharded); err != nil {
		t.Fatal(err)
	}
	if _, err := summarize(dir, 10, 0); err == nil || !strings.Contains(err.Error(), "coordinator.json") {
		t.Fatalf("want a refusal naming coordinator.json, got %v", err)
	}
}
