package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"drqos/internal/estimator"
	"drqos/internal/journal"
	"drqos/internal/qos"
)

// smallOpts keeps unit-test runs fast: a light load on the default
// 100-node paper topology.
func smallOpts(seed uint64) Options {
	return Options{
		Seed:         seed,
		InitialConns: 300,
		ChurnEvents:  400,
		WarmupEvents: 100,
	}
}

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := sys.opts
	if o.Nodes != 100 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.Capacity != PaperCapacity {
		t.Fatalf("capacity %v", o.Capacity)
	}
	m := sys.Metrics()
	if m.Nodes != 100 || !m.Connected {
		t.Fatalf("metrics %+v", m)
	}
	// Paper-matched scale: ≈177 physical links (354 directed).
	if m.Edges < 140 || m.Edges > 220 {
		t.Fatalf("edges = %d, expected ≈177", m.Edges)
	}
}

func TestNewSystemTransitStub(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 2, Kind: TopologyTransitStub})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Metrics().Nodes != 100 {
		t.Fatalf("tier nodes = %d", sys.Metrics().Nodes)
	}
}

func TestNewSystemUnknownKind(t *testing.T) {
	if _, err := NewSystem(Options{Seed: 1, Kind: TopologyKind(99)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestEvaluatePipeline(t *testing.T) {
	sys, err := NewSystem(smallOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sys.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Sim.Established == 0 {
		t.Fatal("nothing simulated")
	}
	for name, m := range map[string]estimator.Solution{
		"paper":   ev.PaperModel,
		"restart": ev.RestartModel,
		"general": ev.GeneralModel,
	} {
		if m.MeanBandwidth < 100 || m.MeanBandwidth > 500 {
			t.Fatalf("%s mean %v outside elastic range", name, m.MeanBandwidth)
		}
		var sum float64
		for _, p := range m.Pi {
			if p < -1e-12 {
				t.Fatalf("%s has negative probability", name)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s pi sums to %v", name, sum)
		}
	}
	// At this light load everything should sit near Bmax and all models
	// should agree with the simulation within a few percent.
	if rel := math.Abs(ev.RestartModel.MeanBandwidth-ev.Sim.AvgBandwidth) / ev.Sim.AvgBandwidth; rel > 0.1 {
		t.Fatalf("restart model off by %v (sim %v, model %v)",
			rel, ev.Sim.AvgBandwidth, ev.RestartModel.MeanBandwidth)
	}
	if ev.IdealBandwidth <= 0 {
		t.Fatalf("ideal = %v", ev.IdealBandwidth)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	run := func() *Evaluation {
		sys, err := NewSystem(smallOpts(11))
		if err != nil {
			t.Fatal(err)
		}
		ev, err := sys.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	a, b := run(), run()
	if a.Sim.AvgBandwidth != b.Sim.AvgBandwidth ||
		a.PaperModel.MeanBandwidth != b.PaperModel.MeanBandwidth ||
		a.RestartModel.MeanBandwidth != b.RestartModel.MeanBandwidth {
		t.Fatal("Evaluate is nondeterministic")
	}
}

func TestFixedSpec(t *testing.T) {
	s := FixedSpec(100)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.States() != 1 {
		t.Fatalf("states = %d", s.States())
	}
	if s.Bandwidth(0) != 100 {
		t.Fatalf("bw = %v", s.Bandwidth(0))
	}
}

func TestCompareBaselines(t *testing.T) {
	opts := smallOpts(13)
	opts.InitialConns = 2500 // load high enough that fixed-max rejects
	sys, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := sys.CompareBaselines()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's motivating claims (§1):
	// 1. Fixed-max requests get rejected far more often.
	if cmp.FixedMax.AcceptanceRatio >= cmp.Elastic.AcceptanceRatio {
		t.Fatalf("fixed-max acceptance %v should be below elastic %v",
			cmp.FixedMax.AcceptanceRatio, cmp.Elastic.AcceptanceRatio)
	}
	// 2. Fixed-min leaves utilization on the table: its average bandwidth
	// is pinned at the minimum while elastic grows beyond it.
	if math.Abs(cmp.FixedMin.AvgBandwidth-100) > 1e-6 {
		t.Fatalf("fixed-min avg bandwidth %v, want Bmin", cmp.FixedMin.AvgBandwidth)
	}
	if cmp.Elastic.AvgBandwidth <= cmp.FixedMin.AvgBandwidth {
		t.Fatalf("elastic %v should beat fixed-min %v",
			cmp.Elastic.AvgBandwidth, cmp.FixedMin.AvgBandwidth)
	}
	// 3. Elastic admits as many connections as fixed-min (same minima).
	if cmp.Elastic.AcceptanceRatio < 0.95*cmp.FixedMin.AcceptanceRatio {
		t.Fatalf("elastic acceptance %v far below fixed-min %v",
			cmp.Elastic.AcceptanceRatio, cmp.FixedMin.AcceptanceRatio)
	}
	if cmp.Elastic.Scheme != "elastic" || cmp.FixedMin.Scheme != "fixed-min" || cmp.FixedMax.Scheme != "fixed-max" {
		t.Fatal("scheme labels wrong")
	}
}

func TestPaperRates(t *testing.T) {
	l, m, g := PaperRates()
	if l != 0.001 || m != 0.001 || g != 0 {
		t.Fatalf("rates %v %v %v", l, m, g)
	}
}

func TestEvaluateWithFailures(t *testing.T) {
	opts := smallOpts(17)
	opts.Gamma = 0.0005
	sys, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sys.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Sim.Failures == 0 {
		t.Fatal("no failures with gamma > 0")
	}
	if opts.withDefaults().RepairRate != 0.01 {
		t.Fatal("repair default not applied")
	}
	_ = qos.DefaultSpec()
}

// TestTracePlumbing: a traced run journals every event it applies into the
// directory OpenTrace prepared — those before measurement starts behind a
// snapshot — and a directory holding a run is not reused.
func TestTracePlumbing(t *testing.T) {
	dir := t.TempDir()
	meta := DataMeta{Kind: "waxman", Nodes: 100, Seed: 19, CapacityKbps: int64(PaperCapacity),
		Policy: "coefficient", RequireBackup: true, Multiplex: true}
	jnl, err := OpenTrace(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts(19)
	opts.InitialConns = 50
	opts.ChurnEvents = 60
	opts.WarmupEvents = 10
	opts.Gamma = 0.001
	opts.Trace = jnl
	sys, err := NewSystem(opts)
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
	rec, err := journal.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := ev.Sim
	if want := r.Offered + r.Terminated + r.Failures + r.Repairs; rec.SnapshotSeq == 0 || int64(rec.SnapshotSeq)+int64(len(rec.Events)) != want {
		t.Fatalf("journal holds a snapshot at seq %d and %d records after it, the run applied %d events",
			rec.SnapshotSeq, len(rec.Events), want)
	}
	if got, err := ReadMeta(dir); err != nil || got != meta {
		t.Fatalf("marker %+v (%v), want %+v", got, err, meta)
	}
	if jnl, err := OpenTrace(dir, meta); err == nil {
		jnl.Close()
		t.Fatal("OpenTrace reused a directory that holds a run")
	}
}

// TestEvaluateWithoutModel: a measured window without an accepted arrival
// has no model, and says why instead of solving a stand-in.
func TestEvaluateWithoutModel(t *testing.T) {
	sys, err := NewSystem(Options{Seed: 3, Lambda: 1e-9, Mu: 1, InitialConns: 5, ChurnEvents: 3, WarmupEvents: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sys.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Sim.Model != nil || ev.Sim.NoModel != estimator.ErrNoArrival.Error() || ev.RestartModel.Pi != nil {
		t.Fatalf("model %+v (%q), restart solution %+v; want none, and why", ev.Sim.Model, ev.Sim.NoModel, ev.RestartModel)
	}
}

// TestTraceIsReproducible: two traced runs of one seed write the same
// files, byte for byte — the snapshot included, whose header carries no
// wall-clock stamp.
func TestTraceIsReproducible(t *testing.T) {
	meta := DataMeta{Kind: "waxman", Nodes: 100, Seed: 23, CapacityKbps: int64(PaperCapacity),
		Policy: "coefficient", RequireBackup: true, Multiplex: true}
	trace := func() string {
		dir := t.TempDir()
		jnl, err := OpenTrace(dir, meta)
		if err != nil {
			t.Fatal(err)
		}
		opts := smallOpts(meta.Seed)
		opts.InitialConns, opts.ChurnEvents, opts.WarmupEvents, opts.Gamma = 50, 60, 10, 0.001
		opts.Trace = jnl
		sys, err := NewSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Evaluate(); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	a := trace()
	// Start the second run in the next second of the wall clock, so any
	// stamp of it, down to the second, would differ.
	time.Sleep(time.Until(time.Now().Truncate(time.Second).Add(time.Second)))
	b := trace()
	files, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	var snapshots int
	for _, f := range files {
		x, err := os.ReadFile(filepath.Join(a, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs between two runs of one seed", f.Name())
		}
		if strings.HasSuffix(f.Name(), ".snap") {
			snapshots++
		}
	}
	if others, err := os.ReadDir(b); err != nil || len(others) != len(files) || snapshots != 1 {
		t.Fatalf("%d and %d files (%v), %d snapshots; want the same files and one snapshot", len(files), len(others), err, snapshots)
	}
}
