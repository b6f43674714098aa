// Command drtrace summarizes a single-plane data directory — the journal
// `drsim -trace` writes, or a live or stopped drserverd's -data-dir: event
// counts, per-failure impact, and the population and bandwidth trajectory by
// journal sequence number. It restores the newest snapshot, if any, and
// replays the record tail after it through the manager's transition; it
// never writes to the directory.
//
// Then it runs the rest of the paper's §3.3 pipeline on that tail: the
// estimator measures Pf, Ps and the jump matrices, and the chain is solved,
// plain and with the restart extension. A drsim journal's snapshot is where
// the run started measuring, so its tail is the measured window. The journal
// has no clock and π needs none — scaling every rate by one factor leaves it
// unchanged — so rates are counted per accepted arrival (λ = 1). N̄, for the
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
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "drtrace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in        = flag.String("in", "", "data directory written by drsim -trace or drserverd -data-dir (required)")
		buckets   = flag.Int("buckets", 10, "number of sequence-number buckets in the trajectory table")
		transient = flag.Float64("transient", 0, "also solve the paper model's distribution this many expected accepted arrivals after a birth")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		return fmt.Errorf("-in is required")
	}
	if *buckets < 1 {
		return fmt.Errorf("need at least 1 bucket")
	}
	s, err := summarize(*in, *buckets, *transient)
	if err != nil {
		return err
	}
	s.print(os.Stdout)
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
	model       *model  // the chain the tail measures, or nil and why not
	noModel     string
}

type point struct {
	seq   uint64
	alive int
	avgBW float64
}

// model is the paper's chain as a record tail measures it, with rates per
// accepted arrival.
type model struct {
	spec                         qos.ElasticSpec
	accepted, terminated, failed int64
	params                       markov.Params // λ = 1
	pfFail, da, db, dt           float64
	birth                        []float64
	avgAlive, delta              float64 // N̄ before each Poisson epoch; δ = μ/N̄
	horizon                      float64 // of transient, in expected accepted arrivals
	paper, restart, transient    solution
}

type solution struct {
	pi   []float64
	mean float64
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
	s := &summary{snapshotSeq: rec.SnapshotSeq, restored: m.AliveCount(), records: n, counts: map[string]int{}}
	spec, why := tailSpec(rec.Events)
	var est *estimator.Estimator
	if why == "" {
		est = estimator.New(spec.States())
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
	if est != nil {
		s.model, why, err = solve(est, spec, alive.Mean(), horizon)
	}
	s.noModel = why
	return s, err
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

// solve turns the estimator's measurements into the chain's parameters, with
// rates per accepted arrival, and solves the paper and restart models.
func solve(est *estimator.Estimator, spec qos.ElasticSpec, avgAlive, horizon float64) (*model, string, error) {
	md := &model{spec: spec, avgAlive: avgAlive, horizon: horizon, pfFail: est.PfFail(), birth: est.BirthDist()}
	md.accepted, md.terminated, md.failed = est.Counts()
	if md.accepted == 0 {
		return nil, "the tail holds no accepted arrival", nil
	}
	mu, gamma := float64(md.terminated)/float64(md.accepted), float64(md.failed)/float64(md.accepted)
	md.params = est.Params(1, mu, gamma)
	md.da, md.db, md.dt = est.Discarded()
	if avgAlive > 0 {
		md.delta = mu / avgAlive
	}
	chain, err := markov.Build(md.params)
	if err != nil {
		return nil, "", err
	}
	if md.paper.pi, md.paper.mean, err = markov.Solve(chain, md.birth, 0, spec); err != nil {
		return nil, "", fmt.Errorf("paper model: %w", err)
	}
	if md.restart.pi, md.restart.mean, err = markov.Solve(chain, md.birth, md.delta, spec); err != nil {
		return nil, "", fmt.Errorf("restart model: %w", err)
	}
	if horizon > 0 {
		if md.transient.pi, err = chain.Transient(md.birth, horizon, 1e-10); err != nil {
			return nil, "", fmt.Errorf("transient: %w", err)
		}
		if md.transient.mean, err = markov.MeanBandwidth(md.transient.pi, spec); err != nil {
			return nil, "", err
		}
	}
	return md, "", nil
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
	p := md.params
	fmt.Fprintf(w, "\nmodel of the tail: %d accepted arrivals, %d terminations, %d link failures; spec %d..%d Kb/s by %d (%d states)\n",
		md.accepted, md.terminated, md.failed, md.spec.Min, md.spec.Max, md.spec.Increment, p.N)
	fmt.Fprintf(w, "rates per accepted arrival: λ=1 μ=%.6f γ=%.6f; N̄=%.1f, δ=μ/N̄=%.3e\n", p.Mu, p.Gamma, md.avgAlive, md.delta)
	fmt.Fprintf(w, "Pf=%.4f Ps=%.4f PfFail=%.4f; discarded jump mass A=%.3f B=%.3f T=%.3f\n", p.Pf, p.Ps, md.pfFail, md.da, md.db, md.dt)
	fmt.Fprintf(w, "birth:          pi=%s\n", fmtDist(md.birth))
	fmt.Fprintf(w, "paper model:    pi=%s  mean=%.1f Kb/s\n", fmtDist(md.paper.pi), md.paper.mean)
	fmt.Fprintf(w, "restart model:  pi=%s  mean=%.1f Kb/s\n", fmtDist(md.restart.pi), md.restart.mean)
	if md.horizon > 0 {
		fmt.Fprintf(w, "transient %g:  pi=%s  mean=%.1f Kb/s (paper model, %g expected accepted arrivals after a birth)\n",
			md.horizon, fmtDist(md.transient.pi), md.transient.mean, md.horizon)
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
