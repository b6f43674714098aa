// Command drtrace summarizes a single-plane data directory — the journal
// `drsim -trace` writes, or a live or stopped drserverd's -data-dir: event
// counts, per-failure impact, and the population and bandwidth trajectory by
// journal sequence number. It restores the newest snapshot, if any, and
// replays the record tail after it through the manager's transition; it
// never writes to the directory.
//
// Then it runs the rest of the paper's §3.3 pipeline on that tail: it builds
// the tail's estimator.Model and solves it, plain and with the restart
// extension. A drsim journal's snapshot is where the run started measuring,
// so its tail is the measured window. The journal has no clock and π needs
// none — scaling every rate by one factor leaves it unchanged — so rates
// are counted per accepted arrival (λ = 1). N̄, for the
// restart rate δ = μ/N̄, averages the population before each establish,
// terminate and link failure: epochs of the merged Poisson streams, so it is
// the time average (PASTA). The model's spec is the one every establish in
// the tail carries; a tail mixing specs, or without an accepted arrival, has
// no model, and drtrace says why.
//
// Example:
//
//	drsim -conns 2000 -gamma 1e-4 -trace run1
//	drtrace -in run1 -buckets 10 -transient 100
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"drqos/internal/core"
	"drqos/internal/estimator"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/markov"
	"drqos/internal/qos"
	"drqos/internal/server"
	"drqos/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "drtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("drtrace", flag.ExitOnError)
	var (
		in        = fs.String("in", "", "data directory written by drsim -trace or drserverd -data-dir (required)")
		buckets   = fs.Int("buckets", 10, "number of sequence-number buckets in the trajectory table")
		transient = fs.Float64("transient", 0, "also solve the paper model's distribution this many expected accepted arrivals after a birth")
	)
	fs.Parse(args) // exits on a malformed flag
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("-in is required")
	}
	if *buckets < 1 {
		return fmt.Errorf("need at least 1 bucket")
	}
	if *transient < 0 {
		return fmt.Errorf("-transient %g is negative", *transient)
	}
	s, err := summarize(*in, *buckets, *transient)
	if err != nil {
		return err
	}
	s.print(w)
	return nil
}

// kinds orders the count line; a rejected establish counts as "reject".
var kinds = []string{"establish", "reject", "terminate", "fail_link", "repair_link", "term"}

// summary is what one directory's record tail says.
type summary struct {
	snapshotSeq uint64         // the tail starts after it (0: no snapshot)
	restored    int            // connections alive in the snapshot
	records     int            // records in the tail
	counts      map[string]int // by kind
	impact      stats.Running  // connections activated or dropped, per failure
	dropped     int
	points      []point // the state after each bucket's last record

	// The chain the tail measures, with rates per accepted arrival, and
	// its solutions; or a nil model and why not.
	spec      qos.ElasticSpec
	model     *estimator.Model
	solved    *estimator.Solved
	horizon   float64 // of transient, in expected accepted arrivals
	transient estimator.Solution
	noModel   string
}

type point struct {
	seq   uint64
	alive int
	avgBW float64
}

// summarize reads dir without writing to it, restores its snapshot and
// steps the restored manager through the tail, bucketing the trajectory by
// record and feeding the estimator; then it solves the measured chain, and
// its transient at horizon when that is positive.
func summarize(dir string, buckets int, horizon float64) (*summary, error) {
	meta, err := core.ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	sys, mcfg, err := meta.Build()
	if err != nil {
		return nil, err
	}
	rec, err := journal.Read(dir)
	if err != nil {
		return nil, err
	}
	head := *rec
	head.Events = nil
	m, _, err := server.Rebuild(sys.Graph(), mcfg, &head)
	if err != nil {
		return nil, err
	}
	n := len(rec.Events)
	s := &summary{snapshotSeq: rec.SnapshotSeq, restored: m.AliveCount(), records: n, counts: map[string]int{}, horizon: horizon}
	var est *estimator.Estimator
	if s.spec, s.noModel = tailSpec(rec.Events); s.noModel == "" {
		est = estimator.New(s.spec.States())
	}
	var alive stats.Running
	for i, ev := range rec.Events {
		kind := ev.Kind.String()
		if ev.Kind != journal.KindTerm { // a replication fence: no manager state
			alivePrior := m.AliveCount()
			if ev.Kind != journal.KindRepairLink { // not a Poisson epoch
				alive.Observe(float64(alivePrior))
			}
			out, err := m.Apply(ev)
			switch {
			case errors.Is(err, manager.ErrRejected), errors.Is(err, qos.ErrInvalidSpec):
				kind = "reject"
			case err != nil:
				return nil, fmt.Errorf("replay seq %d (%s): %w", ev.Seq, ev, err)
			default:
				if est != nil {
					est.Observe(m, out, alivePrior)
				}
				if out.Failure != nil {
					s.impact.Observe(float64(len(out.Failure.Activated) + len(out.Failure.Dropped)))
					s.dropped += len(out.Failure.Dropped)
				}
			}
		}
		s.counts[kind]++
		if (i+1)*buckets/n > i*buckets/n { // record i closes a bucket
			s.points = append(s.points, point{seq: ev.Seq, alive: m.AliveCount(), avgBW: m.AverageBandwidth()})
		}
	}
	if est == nil {
		return s, nil
	}
	accepted, _, _ := est.Counts()
	if s.model, err = est.Model(float64(accepted), alive.Mean()); err != nil {
		s.noModel = err.Error()
		return s, nil
	}
	return s, s.solve()
}

// tailSpec is the elastic spec every establish in the tail carries, or why
// there is none to model.
func tailSpec(evs []journal.Event) (spec qos.ElasticSpec, why string) {
	for _, ev := range evs {
		if ev.Kind != journal.KindEstablish {
			continue
		}
		switch es := manager.EventSpec(ev); {
		case spec == (qos.ElasticSpec{}):
			spec = es
		case es != spec:
			return spec, fmt.Sprintf("the tail mixes specs (%+v and %+v)", spec, es)
		}
	}
	if spec == (qos.ElasticSpec{}) {
		return spec, "the tail holds no establish"
	}
	if err := spec.Validate(); err != nil {
		return spec, err.Error()
	}
	return spec, ""
}

// solve solves the tail's model, and the paper model's transient at the
// horizon when that is positive.
func (s *summary) solve() error {
	var err error
	if s.solved, err = s.model.Solve(s.spec); err != nil || s.horizon <= 0 {
		return err
	}
	if s.transient.Pi, err = s.solved.Chain.Transient(s.model.BirthDist, s.horizon, 1e-10); err != nil {
		return fmt.Errorf("transient: %w", err)
	}
	s.transient.MeanBandwidth, err = markov.MeanBandwidth(s.transient.Pi, s.spec)
	return err
}

func (s *summary) print(w io.Writer) {
	if s.snapshotSeq > 0 {
		fmt.Fprintf(w, "snapshot: seq %d, %d connections alive\n", s.snapshotSeq, s.restored)
	}
	fmt.Fprintf(w, "events: %d total", s.records)
	for _, k := range kinds {
		if s.counts[k] > 0 {
			fmt.Fprintf(w, "  %s=%d", k, s.counts[k])
		}
	}
	fmt.Fprintln(w)
	if s.impact.N() > 0 {
		fmt.Fprintf(w, "failure impact: %.2f affected connections per failure (max %.0f over %d failures), %d dropped\n",
			s.impact.Mean(), s.impact.Max(), s.impact.N(), s.dropped)
	}
	if len(s.points) > 0 {
		fmt.Fprintf(w, "\n%-12s %-8s %-10s\n", "seq", "alive", "avg bw")
		for _, p := range s.points {
			fmt.Fprintf(w, "%-12d %-8d %-10.1f\n", p.seq, p.alive, p.avgBW)
		}
	}
	md := s.model
	if md == nil {
		fmt.Fprintf(w, "\nno model: %s\n", s.noModel)
		return
	}
	fmt.Fprintf(w, "\nmodel of the tail: %d accepted arrivals, %d terminations, %d link failures; spec %d..%d Kb/s by %d (%d states)\n",
		md.Accepted, md.Terminated, md.Failed, s.spec.Min, s.spec.Max, s.spec.Increment, s.spec.States())
	fmt.Fprintf(w, "rates per accepted arrival: λ=%g μ=%.6f γ=%.6f; N̄=%.1f, δ=μ/N̄=%.3e\n", md.Lambda, md.Mu, md.Gamma, md.AvgAlive, md.Delta)
	fmt.Fprintf(w, "Pf=%.4f Ps=%.4f PfFail=%.4f; discarded jump mass A=%.3f B=%.3f T=%.3f\n", md.Pf, md.Ps, md.PfFail, md.DiscardedA, md.DiscardedB, md.DiscardedT)
	fmt.Fprintf(w, "birth:          pi=%s\n", fmtDist(md.BirthDist))
	fmt.Fprintf(w, "paper model:    pi=%s  mean=%.1f Kb/s\n", fmtDist(s.solved.Paper.Pi), s.solved.Paper.MeanBandwidth)
	fmt.Fprintf(w, "restart model:  pi=%s  mean=%.1f Kb/s\n", fmtDist(s.solved.Restart.Pi), s.solved.Restart.MeanBandwidth)
	if s.horizon > 0 {
		fmt.Fprintf(w, "transient %g:  pi=%s  mean=%.1f Kb/s (paper model, %g expected accepted arrivals after a birth)\n",
			s.horizon, fmtDist(s.transient.Pi), s.transient.MeanBandwidth, s.horizon)
	}
}

func fmtDist(pi []float64) string {
	out := "["
	for i, p := range pi {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.3f", p)
	}
	return out + "]"
}
