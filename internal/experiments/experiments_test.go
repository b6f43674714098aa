package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// All experiment tests run at ScaleQuick; the Full scale is exercised by
// the benchmark harness and cmd/experiments.

func TestFig2ShapeAndRender(t *testing.T) {
	res, err := Fig2(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Monotone non-increasing simulated average (the paper's headline
	// trend), and the analytic curve within the elastic range.
	const eps = 1e-6 // time-weighted averaging leaves fp dust at the rails
	var relErr float64
	for i, p := range res.Points {
		relErr += math.Abs(p.Analytic-p.SimAvg) / p.SimAvg
		if p.SimAvg < 100-eps || p.SimAvg > 500+eps {
			t.Fatalf("point %d: sim %v outside range", i, p.SimAvg)
		}
		if p.Analytic < 100-eps || p.Analytic > 500+eps {
			t.Fatalf("point %d: analytic %v outside range", i, p.Analytic)
		}
		if i > 0 && p.SimAvg > res.Points[i-1].SimAvg+10 {
			t.Fatalf("avg bandwidth increased with load: %+v", res.Points)
		}
	}
	// The agreement the reproduction rests on (the paper's Fig. 2 check):
	// the Markov model tracks the detailed simulation. Mean |analytic−sim|/sim
	// over the sweep is deterministic per seed — 0.0382 at this one; seeds
	// 1–5 span 0.012–0.103 (BenchmarkFig2AvgBandwidthVsLoad reports the same
	// quantity as model-relerr).
	relErr /= float64(len(res.Points))
	t.Logf("model-relerr %.4f", relErr)
	if relErr > 0.06 {
		t.Fatalf("model vs simulation: mean relative error %.4f, want <= 0.06: %+v", relErr, res.Points)
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.SimAvg-last.SimAvg < 50 {
		t.Fatalf("no visible load effect: first %v, last %v", first.SimAvg, last.SimAvg)
	}
	// At the lightest load the connection should get nearly Bmax.
	if first.SimAvg < 450 {
		t.Fatalf("light load average %v, want near Bmax", first.SimAvg)
	}
	// The ideal line sits above the simulation (it assumes perfect
	// utilization) once unclamped values are comparable.
	if last.Ideal < last.SimAvg*0.8 {
		t.Fatalf("ideal %v implausibly below sim %v", last.Ideal, last.SimAvg)
	}
	text, _ := printTable(t, res.Table())
	for _, want := range []string{"Figure 2", "offered", "markov"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

func TestTable1IncrementSizesAgree(t *testing.T) {
	res, err := Table1(Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		// The paper's point: 5-state and 9-state chains give similar
		// averages. Allow 15% divergence at quick scale.
		if rel := relDiff(row.Random5, row.Random9); rel > 0.15 {
			t.Fatalf("random 5 vs 9 states diverge: %+v (rel %v)", row, rel)
		}
		// Tier accepts far fewer connections than offered at high loads.
		if row.Channels >= 1500 && row.TierAlive >= row.Channels {
			t.Fatalf("tier accepted everything at load %d: %+v", row.Channels, row)
		}
	}
	if text, _ := printTable(t, res.Table()); !strings.Contains(text, "Table 1") {
		t.Fatal("render missing title")
	}
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	den := a
	if b > den {
		den = b
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / den
}

func TestFig3EdgesGrow(t *testing.T) {
	res, err := Fig3(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Links <= res.Points[i-1].Links {
			t.Fatalf("edge count did not grow with nodes: %+v", res.Points)
		}
	}
	// More nodes with the same Waxman parameters → more capacity → higher
	// average bandwidth at fixed load (the paper's Fig 3 trend).
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.SimAvg < first.SimAvg {
		t.Fatalf("bandwidth fell with network size: %+v", res.Points)
	}
	if text, _ := printTable(t, res.Table()); !strings.Contains(text, "Figure 3") {
		t.Fatal("render missing title")
	}
}

func TestFig4FailureRatesFlat(t *testing.T) {
	res, err := Fig4(Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// The paper's finding: γ ≪ λ, μ ⇒ no visible effect. Compare the
	// smallest and the second-largest gamma (the largest, 1e-2, is 10× the
	// arrival rate at quick scale and MAY show an effect; the paper's
	// range tops out at 1e-3 for the same reason).
	lowest := res.Points[0]
	mid := res.Points[len(res.Points)-2]
	if rel := relDiff(lowest.Avg2000, mid.Avg2000); rel > 0.15 {
		t.Fatalf("failure rate visibly changed bandwidth: %+v", res.Points)
	}
	// Failures were actually injected at the higher rates.
	if res.Points[len(res.Points)-1].Failures3000 == 0 {
		t.Fatal("no failures at the top rate")
	}
	if text, _ := printTable(t, res.Table()); !strings.Contains(text, "Figure 4") {
		t.Fatal("render missing title")
	}
}

func TestAblationA(t *testing.T) {
	res, err := AblationA(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.FixedMax.AcceptanceRatio > row.Elastic.AcceptanceRatio {
			t.Fatalf("fixed-max accepted more than elastic at load %d: %+v", row.Load, row)
		}
		if row.Elastic.AvgBandwidth < row.FixedMin.AvgBandwidth-1e-9 {
			t.Fatalf("elastic below fixed-min utilization at load %d", row.Load)
		}
	}
	if text, _ := printTable(t, res.Table()); !strings.Contains(text, "Ablation A") {
		t.Fatal("render missing title")
	}
}

func TestAblationB(t *testing.T) {
	res, err := AblationB(Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]AblationBRow{}
	for _, r := range res.Rows {
		byName[r.Policy] = r
	}
	maxu, ok1 := byName["max-utility"]
	coef, ok2 := byName["coefficient"]
	if !ok1 || !ok2 {
		t.Fatalf("missing policies: %+v", res.Rows)
	}
	// Under both policies high-utility channels do at least as well as
	// low-utility ones; under max-utility the gap is wider (monopolizing).
	if maxu.HighUtilAvg < maxu.LowUtilAvg {
		t.Fatalf("max-utility inverted: %+v", maxu)
	}
	if coef.HighUtilAvg < coef.LowUtilAvg-1e-9 {
		t.Fatalf("coefficient inverted: %+v", coef)
	}
	gapMaxU := maxu.HighUtilAvg - maxu.LowUtilAvg
	gapCoef := coef.HighUtilAvg - coef.LowUtilAvg
	if gapMaxU < gapCoef {
		t.Fatalf("max-utility gap %v should exceed coefficient gap %v", gapMaxU, gapCoef)
	}
	if text, _ := printTable(t, res.Table()); !strings.Contains(text, "Ablation B") {
		t.Fatal("render missing title")
	}
}

func TestAblationC(t *testing.T) {
	res, err := AblationC(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sawBenefit := false
	for _, row := range res.Rows {
		if row.NoMuxAcceptance > row.MuxAcceptance+1e-9 {
			t.Fatalf("disabling multiplexing improved acceptance at load %d: %+v", row.Load, row)
		}
		if row.MuxAcceptance > row.NoMuxAcceptance {
			sawBenefit = true
		}
	}
	if !sawBenefit {
		t.Fatalf("multiplexing showed no benefit at any load: %+v", res.Rows)
	}
	if text, _ := printTable(t, res.Table()); !strings.Contains(text, "Ablation C") {
		t.Fatal("render missing title")
	}
}

func TestAblationD(t *testing.T) {
	res, err := AblationD(Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if row.FloodAcceptance <= 0 || row.SeqAcceptance <= 0 {
			t.Fatalf("zero acceptance: %+v", row)
		}
		// Flooding never does worse than the sequential baseline on
		// admission (it explores every route the sequential search does
		// and more).
		if row.SeqAcceptance > row.FloodAcceptance+0.02 {
			t.Fatalf("sequential beat flooding at load %d: %+v", row.Load, row)
		}
	}
	if text, _ := printTable(t, res.Table()); !strings.Contains(text, "Ablation D") {
		t.Fatal("render missing title")
	}
}

func TestCoverage(t *testing.T) {
	res, err := Coverage(Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.Failures <= first.Failures {
		t.Fatalf("failure counts did not grow with gamma: %+v", res.Points)
	}
	// Note: exposure is NOT monotone in γ — at very high rates drops thin
	// the population, freeing capacity for instant re-protection — so we
	// only assert well-formedness and that failures actually hurt someone.
	var anyDrops bool
	for _, p := range res.Points {
		if p.UnprotectedFrac < 0 || p.UnprotectedFrac > 1 {
			t.Fatalf("fraction out of range: %+v", p)
		}
		if p.DroppedPerFailure > 0 {
			anyDrops = true
		}
	}
	if !anyDrops {
		t.Fatalf("no failure ever dropped a connection: %+v", res.Points)
	}
	if text, _ := printTable(t, res.Table()); !strings.Contains(text, "Coverage extension") {
		t.Fatal("render missing title")
	}
}

// printTable renders tab as text and as .dat. Column formats are data, so
// vet's printf check cannot see them: it fails on a row whose cell count
// is not the column count, and on the "%!" a verb that does not fit its
// cell prints.
func printTable(t *testing.T, tab *Table) (text, dat string) {
	t.Helper()
	for i, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("%s: row %d has %d cells for %d columns", tab.Title, i, len(row), len(tab.Columns))
		}
	}
	var tb strings.Builder
	if err := tab.Render(&tb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tb.String(), "%!") {
		t.Fatalf("a column format does not fit its cells:\n%s", tb.String())
	}
	return tb.String(), string(tab.Dat())
}

func TestWriteDatFiles(t *testing.T) {
	res, err := Fig3(Config{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, data := printTable(t, res.Table())
	lines := strings.Split(strings.TrimSpace(data), "\n")
	if len(lines) != len(res.Points)+1 {
		t.Fatalf("dat lines = %d, want %d", len(lines), len(res.Points)+1)
	}
	// Every data line parses as numbers.
	for _, l := range lines[1:] {
		var nodes, links, alive int
		var sim, markov float64
		if _, err := fmt.Sscanf(l, "%d %d %d %f %f", &nodes, &links, &alive, &sim, &markov); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
	}

	// plots.gp addresses the figures' .dat columns by position: each file it
	// plots keeps the header committed in plots/, and every column it uses
	// exists.
	figures := map[string]*Table{
		"fig2":   (&Fig2Result{}).Table(),
		"table1": (&Table1Result{}).Table(),
		"fig3":   (&Fig3Result{}).Table(),
		"fig4":   (&Fig4Result{}).Table(),
	}
	for name, tab := range figures {
		_, dat := printTable(t, tab)
		committed, err := os.ReadFile(filepath.Join("..", "..", "plots", name+".dat"))
		if err != nil {
			t.Fatal(err)
		}
		if header, _, _ := strings.Cut(string(committed), "\n"); dat != header+"\n" {
			t.Errorf("%s.dat header %q, plots/%s.dat has %q", name, strings.TrimSpace(dat), name, header)
		}
	}
	uses := regexp.MustCompile(`"(\w+)\.dat" using ([\d:]+)`).FindAllStringSubmatch(GnuplotScript(), -1)
	plotted := map[string]bool{}
	for _, u := range uses {
		plotted[u[1]] = true
		tab, ok := figures[u[1]]
		if !ok {
			t.Errorf("plots.gp plots %s.dat, which no figure writes", u[1])
			continue
		}
		for _, col := range strings.Split(u[2], ":") {
			if n, _ := strconv.Atoi(col); n < 1 || n > len(tab.Columns) {
				t.Errorf("plots.gp uses column %s of %s.dat, which has %d", col, u[1], len(tab.Columns))
			}
		}
	}
	for name := range figures {
		if !plotted[name] {
			t.Errorf("plots.gp does not plot %s.dat", name)
		}
	}
}

func TestVariability(t *testing.T) {
	res, err := Variability(Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.N() != res.Replications || res.Model.N() != res.Replications {
		t.Fatalf("replication counts: %d/%d", res.Sim.N(), res.Model.N())
	}
	// Every replication's relative error stays within the band the
	// EXPERIMENTS.md claims for mid loads.
	if res.RelErr.Max() > 0.25 {
		t.Fatalf("a replication diverged: max rel err %v", res.RelErr.Max())
	}
	// Distinct topologies produce distinct results.
	if res.Sim.StdDev() == 0 {
		t.Fatal("replications are identical; seeds not independent")
	}
	if text, _ := printTable(t, res.Table()); !strings.Contains(text, "Variability") {
		t.Fatal("render missing title")
	}
}

func TestAblationE(t *testing.T) {
	res, err := AblationE(Config{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var reactiveEverRecovered, reactiveEverDropped bool
	for _, row := range res.Rows {
		if row.Failures == 0 {
			t.Fatalf("no failures at γ=%v", row.Gamma)
		}
		if row.ReactiveRecoveredPerFailure > 0 {
			reactiveEverRecovered = true
		}
		if row.ReactiveDropsPerFailure > 0 {
			reactiveEverDropped = true
		}
		// Reactive recovery pays in outage-time route discoveries: every
		// affected connection floods for a new route while its service is
		// down, whereas the backup scheme activates pre-reserved routes.
		if row.ReactiveRecoveredPerFailure+row.ReactiveDropsPerFailure <= 0 {
			t.Fatalf("reactive failures touched nobody at γ=%v: %+v", row.Gamma, row)
		}
		// Without spare reserved, reactive runs fatter in steady state —
		// the §1 capacity-vs-dependability tradeoff.
		if row.ReactiveAvgBW < row.BackupAvgBW-25 {
			t.Fatalf("reactive bw below backup bw at γ=%v: %+v", row.Gamma, row)
		}
	}
	if !reactiveEverRecovered {
		t.Fatal("reactive mode never recovered a connection")
	}
	// Resource shortage must bite somewhere in the sweep ("such channel
	// re-establishment attempts can fail", §2.1.2).
	if !reactiveEverDropped {
		t.Fatal("reactive restoration never failed — shortage never bit")
	}
	if text, _ := printTable(t, res.Table()); !strings.Contains(text, "Ablation E") {
		t.Fatal("render missing title")
	}
}
