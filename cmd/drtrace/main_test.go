package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"drqos/internal/channel"
	"drqos/internal/core"
	"drqos/internal/estimator"
	"drqos/internal/forecast"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
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
		"establish": res.Model.Lambda, "terminate": res.Model.Mu, "fail_link": res.Model.Gamma,
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
				if s.model == nil {
					t.Fatalf("no model: %s", s.noModel)
				}
				if gamma > 0 && s.model.Failed == 0 {
					t.Fatal("the run must fail links to mean anything")
				}
				sameModel(t, s.model, ev.Sim.Model)
				if d := math.Abs(s.solved.Paper.MeanBandwidth - ev.PaperModel.MeanBandwidth); d > 1e-9 {
					t.Errorf("paper-model mean %v, the run's %v", s.solved.Paper.MeanBandwidth, ev.PaperModel.MeanBandwidth)
				}
				for i, pi := range s.solved.Paper.Pi {
					if d := math.Abs(pi - ev.PaperModel.Pi[i]); d > 1e-9 {
						t.Errorf("paper-model pi[%d] = %v, the run's %v", i, pi, ev.PaperModel.Pi[i])
					}
				}
				restart := s.solved.Restart.MeanBandwidth
				if d := math.Abs(restart/ev.RestartModel.MeanBandwidth - 1); d > 5e-4 {
					t.Errorf("restart-model mean %v, the run's %v (%.4f%% apart)", restart, ev.RestartModel.MeanBandwidth, 100*d)
				}
				t.Logf("N̄ %.2f (run %.2f), restart mean %.4f (run %.4f)", s.model.AvgAlive, ev.Sim.Model.AvgAlive, restart, ev.RestartModel.MeanBandwidth)
			})
		}
	}
}

// sameModel fails t unless got, a tail's model with rates per accepted
// arrival, measures what want measured over its own clock: the same counts,
// probabilities, jump matrices, discarded mass and birth distribution bit
// for bit, and the same rates relative to λ. N̄ and the clock are each
// consumer's own, so they are not compared.
func sameModel(t *testing.T, got, want *estimator.Model) {
	t.Helper()
	if got.Accepted != want.Accepted || got.Terminated != want.Terminated || got.Failed != want.Failed || got.Ignored != want.Ignored {
		t.Errorf("counts %d/%d/%d/%d, want %d/%d/%d/%d", got.Accepted, got.Terminated, got.Failed, got.Ignored,
			want.Accepted, want.Terminated, want.Failed, want.Ignored)
	}
	if got.Pf != want.Pf || got.Ps != want.Ps || got.PfFail != want.PfFail {
		t.Errorf("Pf/Ps/PfFail %v/%v/%v, want %v/%v/%v", got.Pf, got.Ps, got.PfFail, want.Pf, want.Ps, want.PfFail)
	}
	p, q := got.Params(), want.Params()
	if !reflect.DeepEqual(p.A, q.A) || !reflect.DeepEqual(p.B, q.B) || !reflect.DeepEqual(p.T, q.T) {
		t.Errorf("jump matrices differ:\n A %v\n   %v\n B %v\n   %v\n T %v\n   %v", p.A, q.A, p.B, q.B, p.T, q.T)
	}
	wantTerms := want.GeneralTerms()
	for i, term := range got.GeneralTerms() {
		if w := wantTerms[i]; term.Weight != w.Weight || !reflect.DeepEqual(term.Jump, w.Jump) {
			t.Errorf("general term %s differs: weight %v, want %v", term.Name, term.Weight, w.Weight)
		}
	}
	if got.DiscardedA != want.DiscardedA || got.DiscardedB != want.DiscardedB || got.DiscardedT != want.DiscardedT {
		t.Errorf("discarded mass %v/%v/%v, want %v/%v/%v", got.DiscardedA, got.DiscardedB, got.DiscardedT,
			want.DiscardedA, want.DiscardedB, want.DiscardedT)
	}
	if !reflect.DeepEqual(got.BirthDist, want.BirthDist) {
		t.Errorf("birth distribution %v, want %v", got.BirthDist, want.BirthDist)
	}
	for _, r := range []struct {
		name      string
		got, want float64
	}{
		{"μ/λ", got.Mu / got.Lambda, want.Mu / want.Lambda},
		{"γ/λ", got.Gamma / got.Lambda, want.Gamma / want.Lambda},
	} {
		if math.Abs(r.got-r.want) > 1e-12*math.Abs(r.want) {
			t.Errorf("%s = %v, want %v", r.name, r.got, r.want)
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

// TestForecastIsTheJournalsModel: a journaled daemon's forecaster and
// drtrace over its directory build one model. With snapshots off, the tail
// is the whole history the forecaster observed, each record stepped through
// the same Observe after the same manager.Apply; only the clock (seconds
// against accepted arrivals) and N̄ (time-weighted against averaged over
// Poisson epochs) are each side's own.
func TestForecastIsTheJournalsModel(t *testing.T) {
	dir := t.TempDir()
	protected := meta // backups, so a failure squeezes the channels it moves onto
	protected.Nodes, protected.RequireBackup = 100, true
	if err := core.CheckMeta(dir, protected); err != nil {
		t.Fatal(err)
	}
	sys, mcfg, err := protected.Build()
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
	srv, err := server.NewFromManager(sys.Graph(), m, server.Options{Journal: jnl, SnapshotEvery: -1, Forecast: &forecast.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	g, src := sys.Graph(), rng.New(7)
	var alive []channel.ConnID
	drop := func(ids []channel.ConnID) {
		alive = slices.DeleteFunc(alive, func(id channel.ConnID) bool { return slices.Contains(ids, id) })
	}
	for i := 0; i < 3000; i++ {
		switch r := src.Float64(); {
		case r < 0.02:
			l := topology.LinkID(src.Intn(g.NumLinks()))
			rep, err := srv.FailLink(ctx, l)
			if err != nil {
				t.Fatalf("fail link %d: %v", l, err)
			}
			drop(rep.Dropped)
			if _, err := srv.RepairLink(ctx, l); err != nil {
				t.Fatalf("repair link %d: %v", l, err)
			}
		case r < 0.15 && len(alive) > 0:
			id := alive[src.Intn(len(alive))]
			if _, err := srv.Terminate(ctx, id); err != nil {
				t.Fatalf("terminate %d: %v", id, err)
			}
			drop([]channel.ConnID{id})
		default:
			a := topology.NodeID(src.Intn(g.NumNodes()))
			b := (a + 1 + topology.NodeID(src.Intn(g.NumNodes()-1))) % topology.NodeID(g.NumNodes())
			switch rep, err := srv.Establish(ctx, a, b, qos.DefaultSpec()); {
			case err == nil:
				alive = append(alive, rep.Conn.ID)
			case !errors.Is(err, manager.ErrRejected):
				t.Fatalf("establish %d→%d: %v", a, b, err)
			}
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	fc, err := srv.Forecaster().SolveNow()
	if err != nil {
		t.Fatal(err)
	}

	s, err := summarize(dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.snapshotSeq != 0 || s.model == nil {
		t.Fatalf("want a model of the whole journal, got snapshot seq %d and %q", s.snapshotSeq, s.noModel)
	}
	if s.model.Terminated == 0 || s.model.PfFail == 0 {
		t.Fatalf("the load must terminate and squeeze on failures to mean anything: %+v", s.counts)
	}
	sameModel(t, s.model, &fc.Model)
	t.Logf("%v; Pf %.4f Ps %.4f PfFail %.4f", s.counts, s.model.Pf, s.model.Ps, s.model.PfFail)
}

// TestRunRefuses: flags that ask for nothing sensible are refused before
// the directory is read, and a sound run prints the summary.
func TestRunRefuses(t *testing.T) {
	dir, _ := traced(t, core.Options{Seed: 1, Nodes: 40, NoRequireBackup: true,
		InitialConns: 100, ChurnEvents: 100, WarmupEvents: 20})
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"no-in", nil, "-in is required"},
		{"buckets-0", []string{"-in", dir, "-buckets", "0"}, "at least 1 bucket"},
		{"transient-negative", []string{"-in", dir, "-transient", "-5"}, "-transient -5 is negative"},
	} {
		var out strings.Builder
		if err := run(c.args, &out); err == nil || !strings.Contains(err.Error(), c.want) || out.Len() > 0 {
			t.Errorf("%s: error %v and %q printed, want a refusal naming %q and nothing printed", c.name, err, out.String(), c.want)
		}
	}
	var out strings.Builder
	if err := run([]string{"-in", dir, "-transient", "5"}, &out); err != nil || !strings.Contains(out.String(), "transient 5:") {
		t.Errorf("sound run: %v\n%s", err, out.String())
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
