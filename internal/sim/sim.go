package sim

import (
	"errors"
	"fmt"

	"drqos/internal/estimator"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/stats"
	"drqos/internal/topology"
)

// Config parameterizes one simulation run. All stochastic behaviour derives
// from Seed, so identical configs replay identical trajectories.
type Config struct {
	// Seed drives every random choice in the run.
	Seed uint64
	// Spec is the elastic QoS requested by every DR-connection (the paper
	// uses a homogeneous population; heterogeneous workloads can be built
	// with the manager API directly).
	Spec qos.ElasticSpec
	// Manager configures admission and adaptation.
	Manager manager.Config
	// Lambda is the system-level DR-connection request arrival rate (the
	// paper's λ = 0.001).
	Lambda float64
	// Mu is the system-level termination rate: terminations of a uniformly
	// random alive connection occur as a Poisson stream with this rate,
	// which keeps the population near its initial level as in §4.
	Mu float64
	// Gamma is the link failure rate. Zero disables failures.
	Gamma float64
	// RepairRate is the repair rate of a failed link (mean outage 1/rate).
	// Zero leaves failed links down for the rest of the run.
	RepairRate float64
	// InitialConns is the number of DR-connection requests issued while
	// loading the network before the measured churn phase. Rejected
	// requests count as issued, matching Table 1's note that the "tier"
	// column counts attempts.
	InitialConns int
	// ChurnEvents is the number of measured arrival/termination/failure
	// events to simulate after loading.
	ChurnEvents int
	// WarmupEvents is the number of churn events discarded before
	// measurement starts.
	WarmupEvents int
	// Trace, when non-nil, journals every event the run applies — loading
	// included, rejected establishes too — before the manager applies it,
	// as the daemon's write path does, and takes a snapshot where
	// measurement starts: the record tail after it is the measured window.
	// Replaying the journal therefore reaches the run's final state:
	// drserverd boots from it, and drtrace summarises it and measures and
	// solves the model from its tail.
	Trace *journal.Journal
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	switch {
	case c.Lambda <= 0:
		return fmt.Errorf("sim: non-positive lambda %v", c.Lambda)
	case c.Mu <= 0:
		return fmt.Errorf("sim: non-positive mu %v", c.Mu)
	case c.Gamma < 0:
		return fmt.Errorf("sim: negative gamma %v", c.Gamma)
	case c.RepairRate < 0:
		return fmt.Errorf("sim: negative repair rate %v", c.RepairRate)
	case c.InitialConns < 0:
		return fmt.Errorf("sim: negative initial connections %d", c.InitialConns)
	case c.ChurnEvents < 0:
		return fmt.Errorf("sim: negative churn events %d", c.ChurnEvents)
	case c.WarmupEvents < 0 || c.WarmupEvents >= c.ChurnEvents && c.ChurnEvents > 0:
		return fmt.Errorf("sim: warmup %d must be below churn events %d", c.WarmupEvents, c.ChurnEvents)
	}
	return nil
}

// Result summarizes one run.
type Result struct {
	// AvgBandwidth is the time-weighted mean of the per-connection average
	// reserved bandwidth during the measured phase (Kb/s) — the metric of
	// Figures 2-4 and Table 1.
	AvgBandwidth float64
	// AvgBandwidthCI95 is the half-width of the 95% confidence interval of
	// AvgBandwidth, estimated by the method of batch means (10 batches)
	// over the measurement window. Zero when the window is too short.
	AvgBandwidthCI95 float64
	// FinalAvgBandwidth is the instantaneous average at the end of the run.
	FinalAvgBandwidth float64
	// EmpiricalPi is the time-weighted occupancy of each bandwidth state —
	// directly comparable with the Markov chain's stationary distribution.
	EmpiricalPi []float64
	// Model is the measured window's model, with rates per unit of
	// simulated time and N̄ the time-weighted population. It is nil when
	// the window holds no accepted arrival, and NoModel says why.
	Model   *estimator.Model
	NoModel string
	// Offered/Established/Rejected/Terminated/Dropped are event counts over
	// the whole run (loading + churn).
	Offered, Established, Rejected, Terminated, Dropped int64
	// Failures and Repairs count injected link events.
	Failures, Repairs int64
	// Recovered counts reactive re-establishments (ReactiveRecovery mode).
	Recovered int64
	// UnprotectedFrac is the time-weighted fraction of alive connections
	// without a backup during measurement (dependability coverage).
	UnprotectedFrac float64
	// AliveAtEnd is the final population.
	AliveAtEnd int
	// AvgHops is the mean primary-route hop count at the end (feeds the
	// paper's ideal-bandwidth formula).
	AvgHops float64
	// Duration is the simulated time span of the measured phase.
	Duration float64
}

// Sim drives one simulation run.
type Sim struct {
	cfg   Config
	g     *topology.Graph
	mgr   *manager.Manager
	src   *rng.Source
	est   *estimator.Estimator
	q     queue
	clock float64

	measuring bool
	bw        stats.TimeWeighted
	occupancy []stats.TimeWeighted
	counts    Result

	alive    stats.TimeWeighted
	unprot   stats.TimeWeighted
	histBuf  []int
	bwSeries []sample
}

// sample is one (time, value) point of the bandwidth series, kept so the
// batch-means CI can be computed once the window length is known.
type sample struct{ t, v float64 }

// New builds a simulator over graph g.
func New(g *topology.Graph, cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mgr, err := manager.New(g, cfg.Manager)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:       cfg,
		g:         g,
		mgr:       mgr,
		src:       rng.New(cfg.Seed),
		est:       estimator.New(cfg.Spec.States()),
		occupancy: make([]stats.TimeWeighted, cfg.Spec.States()),
	}
	return s, nil
}

// ManagerForTesting exposes the underlying manager, so tests can compare a
// run's final state with what a daemon or a restore rebuilt from its trace.
func (s *Sim) ManagerForTesting() *manager.Manager { return s.mgr }

// randomPair draws a uniform random (src, dst) pair of distinct nodes.
func (s *Sim) randomPair() (topology.NodeID, topology.NodeID) {
	n := s.g.NumNodes()
	a := topology.NodeID(s.src.Intn(n))
	b := topology.NodeID(s.src.Intn(n - 1))
	if b >= a {
		b++
	}
	return a, b
}

// apply steps the manager through ev with the daemon's transition
// (journaled first when the run is traced), counts the outcome and feeds the
// estimator while measurement is active: exactly the events a traced run's
// journal holds after its snapshot. An admission rejection is an outcome,
// not an error. Anything else — in particular a manager.InvariantViolation
// — aborts the run instead of panicking, so the caller can report the
// trajectory that broke the ledger.
func (s *Sim) apply(ev journal.Event) error {
	if s.cfg.Trace != nil {
		if _, err := s.cfg.Trace.Append(ev); err != nil {
			return fmt.Errorf("sim: trace: %w", err)
		}
	}
	alivePrior := s.mgr.AliveCount()
	out, err := s.mgr.Apply(ev)
	switch {
	case errors.Is(err, manager.ErrRejected):
		s.counts.Rejected++
		return nil
	case err != nil:
		return fmt.Errorf("sim: %s: %w", ev, err)
	}
	if s.measuring {
		s.est.Observe(s.mgr, out, alivePrior)
	}
	switch {
	case out.Arrival != nil:
		s.counts.Established++
	case out.Termination != nil:
		s.counts.Terminated++
	case out.Failure != nil:
		s.counts.Failures++
		s.counts.Dropped += int64(len(out.Failure.Dropped))
		s.counts.Recovered += int64(len(out.Failure.Recovered))
	case ev.Kind == journal.KindRepairLink:
		s.counts.Repairs++
	}
	return nil
}

// arrive issues one DR-connection request between a random pair of nodes.
func (s *Sim) arrive() error {
	s.counts.Offered++
	src, dst := s.randomPair()
	return s.apply(manager.EstablishEvent(src, dst, s.cfg.Spec))
}

// terminateRandom terminates a uniformly random alive connection.
func (s *Sim) terminateRandom() error {
	n := s.mgr.AliveCount()
	if n == 0 {
		return nil
	}
	return s.apply(manager.TerminateEvent(s.mgr.AliveIDAt(s.src.Intn(n))))
}

// failRandomLink fails a uniformly random healthy link and schedules its
// repair.
func (s *Sim) failRandomLink() error {
	healthy := make([]topology.LinkID, 0, s.g.NumLinks())
	for i := 0; i < s.g.NumLinks(); i++ {
		if !s.mgr.Network().Failed(topology.LinkID(i)) {
			healthy = append(healthy, topology.LinkID(i))
		}
	}
	if len(healthy) == 0 {
		return nil
	}
	l := healthy[s.src.Intn(len(healthy))]
	if err := s.apply(manager.LinkEvent(journal.KindFailLink, l)); err != nil {
		return err
	}
	if s.cfg.RepairRate > 0 {
		s.q.push(s.clock+s.src.Exp(s.cfg.RepairRate), evRepair, int(l))
	}
	return nil
}

// repairLink repairs a previously failed link.
func (s *Sim) repairLink(l topology.LinkID) error {
	if !s.mgr.Network().Failed(l) {
		return nil
	}
	return s.apply(manager.LinkEvent(journal.KindRepairLink, l))
}

// sample records the instantaneous average bandwidth and state occupancy
// into the time-weighted accumulators.
func (s *Sim) sample() {
	if !s.measuring {
		return
	}
	avgBW := s.mgr.AverageBandwidth()
	s.bw.Observe(s.clock, avgBW)
	s.bwSeries = append(s.bwSeries, sample{t: s.clock, v: avgBW})
	total := s.mgr.AliveCount()
	s.alive.Observe(s.clock, float64(total))
	frac := 0.0
	if total > 0 {
		frac = float64(s.mgr.UnprotectedCount()) / float64(total)
	}
	s.unprot.Observe(s.clock, frac)
	s.histBuf = s.mgr.LevelHistogram(s.histBuf)
	for i := range s.occupancy {
		frac := 0.0
		if total > 0 && i < len(s.histBuf) {
			frac = float64(s.histBuf[i]) / float64(total)
		}
		s.occupancy[i].Observe(s.clock, frac)
	}
}

// Run executes the full simulation: loading phase, warmup, measured churn.
// It returns the aggregated result.
func (s *Sim) Run() (*Result, error) {
	// Loading phase: issue the initial requests back to back (time does
	// not advance; the paper measures steady state, not the loading
	// transient).
	for i := 0; i < s.cfg.InitialConns; i++ {
		if err := s.arrive(); err != nil {
			return nil, err
		}
	}

	// Churn phase: three Poisson streams. Each processed event draws the
	// next event of its own stream.
	s.q.push(s.clock+s.src.Exp(s.cfg.Lambda), evArrival, -1)
	s.q.push(s.clock+s.src.Exp(s.cfg.Mu), evTermination, -1)
	if s.cfg.Gamma > 0 {
		s.q.push(s.clock+s.src.Exp(s.cfg.Gamma), evFailure, -1)
	}

	processed := 0
	measureStart := 0.0
	for processed < s.cfg.ChurnEvents {
		ev, ok := s.q.pop()
		if !ok {
			return nil, errors.New("sim: event queue drained unexpectedly")
		}
		s.clock = ev.at
		switch ev.kind {
		case evArrival:
			if err := s.arrive(); err != nil {
				return nil, err
			}
			s.q.push(s.clock+s.src.Exp(s.cfg.Lambda), evArrival, -1)
			processed++
		case evTermination:
			if err := s.terminateRandom(); err != nil {
				return nil, err
			}
			s.q.push(s.clock+s.src.Exp(s.cfg.Mu), evTermination, -1)
			processed++
		case evFailure:
			if err := s.failRandomLink(); err != nil {
				return nil, err
			}
			s.q.push(s.clock+s.src.Exp(s.cfg.Gamma), evFailure, -1)
			processed++
		case evRepair:
			if err := s.repairLink(topology.LinkID(ev.link)); err != nil {
				return nil, err
			}
			// Repairs do not count toward the churn budget: they are a
			// consequence, not offered load.
		}
		if !s.measuring && processed >= s.cfg.WarmupEvents {
			s.measuring = true
			measureStart = s.clock
			// Open the time-weighted accumulators at the current state.
			s.bw.Observe(s.clock, s.mgr.AverageBandwidth())
			if s.cfg.Trace != nil {
				if err := s.cfg.Trace.WriteSnapshot(s.mgr.SnapshotHeader(), s.mgr.ExportState().MarshalBinary()); err != nil {
					return nil, fmt.Errorf("sim: trace: %w", err)
				}
			}
		}
		s.sample()
	}
	if s.measuring {
		s.bw.CloseAt(s.clock)
		s.alive.CloseAt(s.clock)
		s.unprot.CloseAt(s.clock)
		for i := range s.occupancy {
			s.occupancy[i].CloseAt(s.clock)
		}
	}

	res := s.counts
	res.AvgBandwidth = s.bw.Mean()
	if s.measuring && s.clock > measureStart && len(s.bwSeries) >= 2 {
		if bm, err := stats.NewBatchMeans(measureStart, s.clock, 10); err == nil {
			for _, p := range s.bwSeries {
				bm.Observe(p.t, p.v)
			}
			bm.CloseAt(s.clock)
			if _, hw, err := bm.Estimate(); err == nil {
				res.AvgBandwidthCI95 = hw
			}
		}
	}
	res.FinalAvgBandwidth = s.mgr.AverageBandwidth()
	res.EmpiricalPi = make([]float64, len(s.occupancy))
	for i := range s.occupancy {
		res.EmpiricalPi[i] = s.occupancy[i].Mean()
	}
	res.AliveAtEnd = s.mgr.AliveCount()
	res.Duration = s.clock - measureStart
	md, err := s.est.Model(res.Duration, s.alive.Mean())
	if res.Model = md; err != nil {
		res.NoModel = err.Error()
	}
	res.UnprotectedFrac = s.unprot.Mean()

	var hops, conns float64
	for _, id := range s.mgr.AliveIDs() {
		hops += float64(s.mgr.Conn(id).Primary.Hops())
		conns++
	}
	if conns > 0 {
		res.AvgHops = hops / conns
	}
	return &res, nil
}

// IdealAverageBandwidth computes the paper's dotted reference line for
// Figure 2:
//
//	BW · Edges / (NChan · avgHops)
//
// the bandwidth each channel would get if all network resources were used
// and divided equally. The result is clamped to the spec's [Min, Max]
// because a real channel cannot reserve outside its elastic range.
func IdealAverageBandwidth(capacity qos.Kbps, edges, nChan int, avgHops float64, spec qos.ElasticSpec) float64 {
	if nChan <= 0 || avgHops <= 0 {
		return float64(spec.Max)
	}
	ideal := float64(capacity) * float64(edges) / (float64(nChan) * avgHops)
	if ideal > float64(spec.Max) {
		return float64(spec.Max)
	}
	if ideal < float64(spec.Min) {
		return float64(spec.Min)
	}
	return ideal
}

// IdealAverageBandwidthUnclamped returns the raw formula value, as plotted
// in the paper's Figure 2 reference line.
func IdealAverageBandwidthUnclamped(capacity qos.Kbps, edges, nChan int, avgHops float64) float64 {
	if nChan <= 0 || avgHops <= 0 {
		return 0
	}
	return float64(capacity) * float64(edges) / (float64(nChan) * avgHops)
}
