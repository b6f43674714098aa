// Package estimator measures the paper's model parameters online (§3.3):
// the link-sharing probability Pf, the indirect-chaining probability Ps, and
// the conditional jump matrices A (arrivals/failures, downward), B
// (indirectly chained arrivals, upward) and T (terminations, upward).
//
// The estimator is the one collector of the model's inputs, and Model the
// one model built from them, shared by three consumers: the batch simulator
// (internal/sim) feeds it as it steps, the live forecast control plane
// (internal/forecast) from the admission server's event stream, and
// cmd/drtrace from a data directory's journal replayed after its snapshot.
// Each hands Observe the outcome manager.Apply returned, builds the window's
// Model with Estimator.Model and solves it with Model.Solve, so a live
// daemon, an offline experiment and a stored history measure and solve
// through the identical code path: they differ only in the window's unit and
// in how they average the population N̄.
//
// The mechanics of a real network occasionally move a channel in the
// direction the §3.2 model does not represent (e.g. a directly chained
// channel that ends HIGHER after the squeeze-and-redistribute cycle because
// the policy rebalanced in its favour). Those jumps are counted, reported as
// discarded mass, and projected away when building markov.Params, exactly
// because the paper's chain only has downward A and upward B/T transitions.
package estimator

import (
	"errors"
	"fmt"

	"drqos/internal/channel"
	"drqos/internal/manager"
	"drqos/internal/markov"
	"drqos/internal/qos"
	"drqos/internal/stats"
)

// Estimator accumulates event observations over n bandwidth states.
// It is NOT safe for concurrent use; callers that feed it from multiple
// goroutines (the forecast collector) must serialize access themselves.
type Estimator struct {
	n      int
	pf     stats.Ratio
	ps     stats.Ratio
	pfFail stats.Ratio // channels squeezed per alive channel, per failure

	arrDirect   *stats.TransitionCounter
	arrIndirect *stats.TransitionCounter
	term        *stats.TransitionCounter
	fail        *stats.TransitionCounter

	// ignored counts observed transitions whose endpoints fall outside
	// [0, n) — channels with a heterogeneous spec wider than the modeled
	// one. The simulator's homogeneous population never produces these;
	// a live server can.
	ignored int64

	// The observed events, and accepted arrivals by level after admission.
	accepted, terminated, failed int64
	births                       []int64

	ids []channel.ConnID // the chained IDs of the event in hand
}

// New returns an estimator over n bandwidth states.
func New(n int) *Estimator {
	return &Estimator{
		n:           n,
		arrDirect:   stats.NewTransitionCounter(n),
		arrIndirect: stats.NewTransitionCounter(n),
		term:        stats.NewTransitionCounter(n),
		fail:        stats.NewTransitionCounter(n),
		births:      make([]int64, n),
	}
}

// transitionsOf extracts (from → to) for each listed connection: changed
// connections come from the report's change list, unchanged ones sit at
// their current level. Levels outside the modeled range are dropped and
// counted in Model.Ignored.
func (e *Estimator) transitionsOf(m *manager.Manager, ids []channel.ConnID, changes []manager.LevelChange) [][2]int {
	changed := make(map[channel.ConnID][2]int, len(changes))
	for _, ch := range changes {
		changed[ch.ID] = [2]int{ch.From, ch.To}
	}
	out := make([][2]int, 0, len(ids))
	for _, id := range ids {
		ft, ok := changed[id]
		if !ok {
			c := m.Conn(id)
			if c == nil || !c.Alive() {
				continue // the channel died during the event (e.g. dropped)
			}
			ft = [2]int{c.Level, c.Level}
		}
		out = append(out, ft)
	}
	return e.clampTransitions(out)
}

// clampTransitions filters out transitions whose endpoints fall outside the
// modeled [0, n) range, counting them in Model.Ignored.
func (e *Estimator) clampTransitions(fts [][2]int) [][2]int {
	out := fts[:0]
	for _, ft := range fts {
		if ft[0] < 0 || ft[0] >= e.n || ft[1] < 0 || ft[1] >= e.n {
			e.ignored++
			continue
		}
		out = append(out, ft)
	}
	return out
}

// Observe folds one applied event into the estimate: an accepted arrival,
// a termination or a link failure; any other outcome (a repair, a 2PC
// record) is not a model event and is skipped. alivePrior is the population
// before the event — the denominator of Pf and Ps for an arrival and of the
// involvement probability for a failure, whose squeezed population drives
// the γ-scaled downward transitions. An arrival's and a termination's
// chained channels are read from m (Manager.AppendChained), so Observe must
// run before m applies another event. Observe reports whether it counted
// the event.
func (e *Estimator) Observe(m *manager.Manager, out manager.Outcome, alivePrior int) bool {
	switch {
	case out.Arrival != nil && out.Arrival.Conn != nil:
		rep := out.Arrival
		e.accepted++
		e.births[min(max(rep.Conn.Level, 0), e.n-1)]++ // a wider spec clamps into the grid
		e.pf.ObserveN(int64(rep.DirectlyChained), int64(alivePrior))
		e.ps.ObserveN(int64(rep.IndirectlyChained), int64(alivePrior))
		e.ids = m.AppendChained(e.ids[:0], false)
		for _, ft := range e.transitionsOf(m, e.ids, rep.Changes) {
			e.arrDirect.Record(ft[0], ft[1])
		}
		e.ids = m.AppendChained(e.ids[:0], true)
		for _, ft := range e.transitionsOf(m, e.ids, rep.Changes) {
			e.arrIndirect.Record(ft[0], ft[1])
		}
	case out.Termination != nil:
		e.terminated++
		e.ids = m.AppendChained(e.ids[:0], false)
		for _, ft := range e.transitionsOf(m, e.ids, out.Termination.Changes) {
			e.term.Record(ft[0], ft[1])
		}
	case out.Failure != nil:
		e.failed++
		e.pfFail.ObserveN(int64(len(out.Failure.Squeezed)), int64(alivePrior))
		for _, ft := range e.transitionsOf(m, out.Failure.Squeezed, out.Failure.Changes) {
			e.fail.Record(ft[0], ft[1])
		}
	default:
		return false
	}
	return true
}

// Counts returns how many accepted arrivals, terminations and link failures
// were observed: the event counts behind the effective rates.
func (e *Estimator) Counts() (accepted, terminated, failed int64) {
	return e.accepted, e.terminated, e.failed
}

// ErrNoArrival reports a window without an accepted arrival. It has no
// birth distribution, so it has no model.
var ErrNoArrival = errors.New("no accepted arrival in the window")

// Model is the measured window as every consumer solves it (§3.3): the
// simulator, drtrace and the live forecaster build it with Estimator.Model
// and solve it with Model.Solve. Its rates are counts per unit of a window
// the caller passes: simulated time for the simulator, accepted arrivals for
// drtrace (so λ = 1), seconds for the forecaster, whose JSON names these
// fields carry. N̄ is the caller's too: each averages the population its
// own way.
type Model struct {
	// Window is the span the rates are counted over, in the caller's unit.
	Window float64 `json:"window_seconds"`

	// Accepted, Terminated and Failed count the window's accepted
	// arrivals, terminations and link failures. Ignored counts the
	// transitions that fell outside the modeled grid.
	Accepted   int64 `json:"accepted"`
	Terminated int64 `json:"terminated"`
	Failed     int64 `json:"link_failures"`
	Ignored    int64 `json:"ignored_transitions"`

	// Lambda, Mu and Gamma are the effective rates: the counts per unit of
	// Window. A rejected arrival reserves nothing and squeezes nobody, so
	// the chain is driven by the accepted rate, not the offered one.
	Lambda float64 `json:"lambda_per_sec"`
	Mu     float64 `json:"mu_per_sec"`
	Gamma  float64 `json:"gamma_per_sec"`

	// AvgAlive is the mean standing population N̄. Delta = Mu/AvgAlive is
	// the restart model's per-channel death rate; without a standing
	// population it is 0, and the restart model is the paper's.
	AvgAlive float64 `json:"avg_alive"`
	Delta    float64 `json:"delta_per_sec"`

	// Pf and Ps are the link-sharing and indirect-chaining probabilities.
	// PfFail is the fraction of channels one failure squeezes; the paper
	// reuses Pf there, and measuring it apart shows Pf overstates failure
	// impact when γ approaches λ (EXPERIMENTS.md, Figure 4).
	Pf     float64 `json:"pf"`
	Ps     float64 `json:"ps"`
	PfFail float64 `json:"pf_fail"`

	// DiscardedA, DiscardedB and DiscardedT are the fractions of observed
	// jumps, per matrix, that point in the direction the §3.2 model omits.
	DiscardedA float64 `json:"discarded_a"`
	DiscardedB float64 `json:"discarded_b"`
	DiscardedT float64 `json:"discarded_t"`

	// BirthDist is the distribution of accepted arrivals' levels right
	// after admission: the β of markov.Chain.WithRestart.
	BirthDist []float64 `json:"birth_dist"`

	a, b, t [][]float64    // the paper's jump matrices (see Params)
	jumps   [4][][]float64 // the general terms' full jump matrices
}

// Model builds the measured model over a window of the given length, with
// avgAlive as N̄. It fails with ErrNoArrival before the first accepted
// arrival.
func (e *Estimator) Model(window, avgAlive float64) (*Model, error) {
	if e.accepted == 0 {
		return nil, ErrNoArrival
	}
	md := &Model{
		Window:     window,
		Accepted:   e.accepted,
		Terminated: e.terminated,
		Failed:     e.failed,
		Ignored:    e.ignored,
		Lambda:     float64(e.accepted) / window,
		Mu:         float64(e.terminated) / window,
		Gamma:      float64(e.failed) / window,
		AvgAlive:   avgAlive,
		Pf:         e.pf.Value(),
		Ps:         e.ps.Value(),
		PfFail:     e.pfFail.Value(),
		BirthDist:  make([]float64, e.n),
	}
	if avgAlive > 0 {
		md.Delta = md.Mu / avgAlive
	}
	for i, c := range e.births {
		md.BirthDist[i] = float64(c) / float64(e.accepted)
	}
	// The A matrix merges the arrival-direct and failure observations: the
	// paper uses one A for both the λ and the γ term.
	aCounts := merge(e.arrDirect, e.fail)
	md.DiscardedA = discardedFraction(aCounts, true)
	md.DiscardedB = discardedFraction(e.arrIndirect, false)
	md.DiscardedT = discardedFraction(e.term, false)
	md.a = paperJump(aCounts, true)
	md.b = paperJump(e.arrIndirect, false)
	md.t = paperJump(e.term, false)
	md.jumps = [4][][]float64{fullJump(e.arrDirect), fullJump(e.arrIndirect), fullJump(e.term), fullJump(e.fail)}
	return md, nil
}

// Params is the model as the paper's chain takes it (markov.Build).
func (m *Model) Params() markov.Params {
	return markov.Params{
		N: len(m.BirthDist), Lambda: m.Lambda, Mu: m.Mu, Gamma: m.Gamma,
		Pf: m.Pf, Ps: m.Ps, A: m.a, B: m.b, T: m.t,
	}
}

// GeneralTerms are the model's four event streams for markov.BuildGeneral:
// the extended model, which keeps the jumps the paper's triangular
// structure discards.
func (m *Model) GeneralTerms() []markov.Term {
	return []markov.Term{
		{Name: "arrival-direct", Rate: m.Lambda, Weight: m.Pf, Jump: m.jumps[0]},
		{Name: "arrival-indirect", Rate: m.Lambda, Weight: m.Ps, Jump: m.jumps[1]},
		{Name: "termination", Rate: m.Mu, Weight: m.Pf, Jump: m.jumps[2]},
		{Name: "failure", Rate: m.Gamma, Weight: m.PfFail, Jump: m.jumps[3]},
	}
}

// Solution is one chain's stationary distribution and its mean bandwidth.
type Solution struct {
	Pi            []float64
	MeanBandwidth float64
}

// Solved is a model's paper chain and its two solutions.
type Solved struct {
	// Chain is markov.Build of the model's Params. drtrace takes its
	// transient, and the forecaster's Δ tuning reads its rates.
	Chain *markov.Chain
	// Paper is the chain's solution as published (δ = 0); Restart adds
	// the finite lifetime at rate Delta (markov.Chain.WithRestart).
	Paper, Restart Solution
}

// Solve builds the paper's chain from the model and solves it plain and
// with the restart extension, from the birth distribution, over spec's
// grid.
func (m *Model) Solve(spec qos.ElasticSpec) (*Solved, error) {
	chain, err := markov.Build(m.Params())
	if err != nil {
		return nil, fmt.Errorf("paper model: %w", err)
	}
	s := &Solved{Chain: chain}
	if s.Paper.Pi, s.Paper.MeanBandwidth, err = markov.Solve(chain, m.BirthDist, 0, spec); err != nil {
		return nil, fmt.Errorf("paper model: %w", err)
	}
	if s.Restart.Pi, s.Restart.MeanBandwidth, err = markov.Solve(chain, m.BirthDist, m.Delta, spec); err != nil {
		return nil, fmt.Errorf("restart model: %w", err)
	}
	return s, nil
}

func merge(x, y *stats.TransitionCounter) *stats.TransitionCounter {
	m := stats.NewTransitionCounter(x.N())
	if err := m.Merge(x); err != nil {
		panic(err)
	}
	if err := m.Merge(y); err != nil {
		panic(err)
	}
	return m
}

// discardedFraction returns the share of jumps on the wrong side of the
// diagonal (above for a downward matrix, below for an upward one).
func discardedFraction(c *stats.TransitionCounter, downward bool) float64 {
	var wrong, total int
	for i := 0; i < c.N(); i++ {
		for j := 0; j < c.N(); j++ {
			if i == j {
				continue
			}
			n := c.Count(i, j)
			total += n
			if downward && j > i {
				wrong += n
			}
			if !downward && j < i {
				wrong += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wrong) / float64(total)
}

// fullJump converts raw counts into the unrestricted conditional jump
// matrix: P(land in j | event observed in state i), for i ≠ j. The diagonal
// remainder is the no-change probability.
func fullJump(c *stats.TransitionCounter) [][]float64 {
	n := c.N()
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		ev := c.Events(i)
		if ev == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			out[i][j] = float64(c.Count(i, j)) / float64(ev)
		}
	}
	return out
}

// paperJump is the paper's jump matrix from c's counts: each row's jumps in
// the allowed direction (down for A, up for B and T), renormalized, then
// scaled by the state's movement probability, because the §3.2 rates are
// "event happened AND state changed" rates: A_ij in the paper's rate
// Pf·A_ij·λ is the probability that a directly chained channel in S_i moves
// to S_j given an arrival, including the possibility of not moving (rows may
// sum to < 1). Jumps the other way are projected away.
func paperJump(c *stats.TransitionCounter, downward bool) [][]float64 {
	n := c.N()
	allowed := func(i, j int) bool { return downward && j < i || !downward && j > i }
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		var moved, total int
		for j := 0; j < n; j++ {
			total += c.Count(i, j)
			if allowed(i, j) {
				moved += c.Count(i, j)
			}
		}
		if moved == 0 {
			continue
		}
		act := float64(moved) / float64(total)
		for j := 0; j < n; j++ {
			if allowed(i, j) {
				out[i][j] = float64(c.Count(i, j)) / float64(moved) * act
			}
		}
	}
	return out
}
