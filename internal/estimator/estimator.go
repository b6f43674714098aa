// Package estimator measures the paper's model parameters online (§3.3):
// the link-sharing probability Pf, the indirect-chaining probability Ps, and
// the conditional jump matrices A (arrivals/failures, downward), B
// (indirectly chained arrivals, upward) and T (terminations, upward).
//
// The estimator is the one collector of the model's inputs, shared by three
// consumers: the batch simulator (internal/sim) feeds it as it steps, the
// live forecast control plane (internal/forecast) from the admission
// server's event stream, and cmd/drtrace from a data directory's journal
// replayed after its snapshot. Each hands Observe the outcome manager.Apply
// returned, so a live daemon, an offline experiment and a stored history
// measure parameters through the identical code path — the
// model-vs-measured comparison never has to wonder whether the estimators
// disagree.
//
// The mechanics of a real network occasionally move a channel in the
// direction the §3.2 model does not represent (e.g. a directly chained
// channel that ends HIGHER after the squeeze-and-redistribute cycle because
// the policy rebalanced in its favour). Those jumps are counted, reported as
// discarded mass, and projected away when building markov.Params, exactly
// because the paper's chain only has downward A and upward B/T transitions.
package estimator

import (
	"drqos/internal/channel"
	"drqos/internal/manager"
	"drqos/internal/markov"
	"drqos/internal/stats"
)

// Estimator accumulates event observations over n bandwidth states.
// It is NOT safe for concurrent use; callers that feed it from multiple
// goroutines (the forecast collector) must serialize access themselves.
type Estimator struct {
	n  int
	pf stats.Ratio
	ps stats.Ratio
	// pfFail is the per-failure involvement probability: the fraction of
	// alive channels squeezed by one failure event. The paper reuses Pf
	// here; measuring it separately shows Pf overstates failure impact
	// when γ approaches λ (see EXPERIMENTS.md, Figure 4).
	pfFail stats.Ratio

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

// Ignored returns how many observed transitions were dropped because a
// channel's level fell outside the modeled state range.
func (e *Estimator) Ignored() int64 { return e.ignored }

// transitionsOf extracts (from → to) for each listed connection: changed
// connections come from the report's change list, unchanged ones sit at
// their current level. Levels outside the modeled range are dropped and
// counted in Ignored.
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
// modeled [0, n) range, counting them in Ignored.
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
// the γ-scaled downward transitions. Observe reports whether it counted the
// event.
func (e *Estimator) Observe(m *manager.Manager, out manager.Outcome, alivePrior int) bool {
	switch {
	case out.Arrival != nil && out.Arrival.Conn != nil:
		rep := out.Arrival
		e.accepted++
		e.births[min(max(rep.Conn.Level, 0), e.n-1)]++ // a wider spec clamps into the grid
		e.pf.ObserveN(int64(len(rep.DirectlyChained)), int64(alivePrior))
		e.ps.ObserveN(int64(len(rep.IndirectlyChained)), int64(alivePrior))
		for _, ft := range e.transitionsOf(m, rep.DirectlyChained, rep.Changes) {
			e.arrDirect.Record(ft[0], ft[1])
		}
		for _, ft := range e.transitionsOf(m, rep.IndirectlyChained, rep.Changes) {
			e.arrIndirect.Record(ft[0], ft[1])
		}
	case out.Termination != nil:
		e.terminated++
		for _, ft := range e.transitionsOf(m, out.Termination.Affected, out.Termination.Changes) {
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

// BirthDist returns the distribution of accepted arrivals' levels right
// after admission — the β of markov.Chain.WithRestart — or nil before the
// first accepted arrival.
func (e *Estimator) BirthDist() []float64 {
	if e.accepted == 0 {
		return nil
	}
	out := make([]float64, e.n)
	for i, c := range e.births {
		out[i] = float64(c) / float64(e.accepted)
	}
	return out
}

// Pf returns the measured link-sharing probability.
func (e *Estimator) Pf() float64 { return e.pf.Value() }

// Ps returns the measured indirect-chaining probability.
func (e *Estimator) Ps() float64 { return e.ps.Value() }

// PfFail returns the measured per-failure involvement probability (the
// fraction of channels squeezed by one failure). Zero when no failure was
// observed.
func (e *Estimator) PfFail() float64 { return e.pfFail.Value() }

// Discarded reports the fraction of observed jumps that pointed in the
// direction the §3.2 model does not represent, per matrix.
func (e *Estimator) Discarded() (a, b, t float64) {
	a = discardedFraction(merge(e.arrDirect, e.fail), true)
	b = discardedFraction(e.arrIndirect, false)
	t = discardedFraction(e.term, false)
	return a, b, t
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

// project keeps only the allowed triangle of the empirical jump matrix and
// renormalizes each row.
func project(c *stats.TransitionCounter, downward bool) [][]float64 {
	n := c.N()
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		var rowSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if downward && j >= i {
				continue
			}
			if !downward && j <= i {
				continue
			}
			rowSum += float64(c.Count(i, j))
		}
		if rowSum == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j || (downward && j >= i) || (!downward && j <= i) {
				continue
			}
			out[i][j] = float64(c.Count(i, j)) / rowSum
		}
	}
	return out
}

// jumpProb returns, per state, P(event moves the channel at all), i.e. the
// conditional activity that scales each row's contribution.
func jumpProb(c *stats.TransitionCounter, downward bool) []float64 {
	n := c.N()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var moved, total int
		for j := 0; j < n; j++ {
			cnt := c.Count(i, j)
			total += cnt
			if i == j {
				continue
			}
			if downward && j < i || !downward && j > i {
				moved += cnt
			}
		}
		if total > 0 {
			out[i] = float64(moved) / float64(total)
		}
	}
	return out
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

// GeneralTerms returns the four empirical event streams for
// markov.BuildGeneral — the "extended" model that keeps the jumps the
// paper's triangular structure discards. Rates should be the EFFECTIVE
// rates observed during measurement (accepted arrivals, terminations,
// failures per unit time).
func (e *Estimator) GeneralTerms(lambda, mu, gamma float64) []markov.Term {
	return []markov.Term{
		{Name: "arrival-direct", Rate: lambda, Weight: e.Pf(), Jump: fullJump(e.arrDirect)},
		{Name: "arrival-indirect", Rate: lambda, Weight: e.Ps(), Jump: fullJump(e.arrIndirect)},
		{Name: "termination", Rate: mu, Weight: e.Pf(), Jump: fullJump(e.term)},
		{Name: "failure", Rate: gamma, Weight: e.PfFail(), Jump: fullJump(e.fail)},
	}
}

// Params assembles markov.Params from the measurements. The A matrix merges
// the arrival-direct and failure observations (the paper uses the same A
// for both the λ and γ terms). Each projected row is additionally scaled by
// the per-state movement probability, because the §3.2 rates are "event
// happened AND state changed" rates: A_ij in the paper's rate Pf·A_ij·λ is
// the probability that a directly chained channel in S_i moves to S_j given
// an arrival, including the possibility of not moving (rows may sum to <1).
func (e *Estimator) Params(lambda, mu, gamma float64) markov.Params {
	aCounts := merge(e.arrDirect, e.fail)
	scale := func(m [][]float64, act []float64) [][]float64 {
		for i := range m {
			for j := range m[i] {
				m[i][j] *= act[i]
			}
		}
		return m
	}
	return markov.Params{
		N:      e.n,
		Lambda: lambda,
		Mu:     mu,
		Gamma:  gamma,
		Pf:     e.Pf(),
		Ps:     e.Ps(),
		A:      scale(project(aCounts, true), jumpProb(aCounts, true)),
		B:      scale(project(e.arrIndirect, false), jumpProb(e.arrIndirect, false)),
		T:      scale(project(e.term, false), jumpProb(e.term, false)),
	}
}
