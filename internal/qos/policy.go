package qos

import "fmt"

// GrowthCandidate describes one channel competing for the next bandwidth
// increment during redistribution.
type GrowthCandidate struct {
	// Utility is the channel's utility weight from its ElasticSpec.
	Utility float64
	// ExtraIncrements is the number of Δ-increments the channel currently
	// holds above its minimum.
	ExtraIncrements int
	// Order is a deterministic tiebreaker (typically establishment order).
	Order int64
}

// Rank is a candidate's position in a policy's priority order: candidates
// are served in ascending lexicographic (Key, Tie, Order). A policy computes
// a candidate's rank once; comparing two ranks is then plain arithmetic, so
// a heap of candidates never calls back into the policy.
type Rank struct {
	Key   float64
	Tie   int
	Order int64
}

// Less reports whether r is served before o. It is the one definition of
// candidate order: Pick and the manager's growth heap both compare ranks.
func (r Rank) Less(o Rank) bool {
	if r.Key != o.Key {
		return r.Key < o.Key
	}
	if r.Tie != o.Tie {
		return r.Tie < o.Tie
	}
	return r.Order < o.Order
}

// Policy defines a strict priority order over growth candidates: when extra
// resources are distributed (§2.2), the candidate with the least Rank
// receives the next increment. Implementations must be deterministic; Rank
// carries Order so that no two distinct candidates compare equal.
type Policy interface {
	// Rank places c in the policy's order.
	Rank(c GrowthCandidate) Rank
	Name() string
}

// Pick returns the index of the candidate the policy serves first. It
// panics on an empty slice: callers decide termination before picking.
func Pick(p Policy, cands []GrowthCandidate) int {
	if len(cands) == 0 {
		panic("qos: Pick on empty candidate list")
	}
	best, bestRank := 0, p.Rank(cands[0])
	for i := 1; i < len(cands); i++ {
		if r := p.Rank(cands[i]); r.Less(bestRank) {
			best, bestRank = i, r
		}
	}
	return best
}

// MaxUtilityPolicy implements Han's max-utility scheme [11]: every spare
// increment goes to the candidate with the highest utility, which maximizes
// total reward but "allows a real-time channel to monopolize all the extra
// resources even when its utility is slightly higher than the others".
type MaxUtilityPolicy struct{}

// Name implements Policy.
func (MaxUtilityPolicy) Name() string { return "max-utility" }

// Rank implements Policy: highest utility first; ties go to fewer extras,
// then lower order, keeping the outcome deterministic.
func (MaxUtilityPolicy) Rank(c GrowthCandidate) Rank {
	return Rank{Key: -c.Utility, Tie: c.ExtraIncrements, Order: c.Order}
}

// CoefficientPolicy implements the coefficient scheme [5]: extra resources
// are allocated proportionally to each channel's utility coefficient. The
// proportional share is realized greedily: each increment goes to the
// candidate whose (extras+1)/utility ratio is smallest, i.e. the channel
// furthest below its proportional entitlement. Zero-utility channels come
// last.
type CoefficientPolicy struct{}

// Name implements Policy.
func (CoefficientPolicy) Name() string { return "coefficient" }

// Rank implements Policy.
func (CoefficientPolicy) Rank(c GrowthCandidate) Rank {
	key := float64(c.ExtraIncrements+1) / c.Utility
	if c.Utility <= 0 {
		key = 1e300
	}
	return Rank{Key: key, Order: c.Order}
}

// PolicyByName returns the named policy ("max-utility" or "coefficient").
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "max-utility":
		return MaxUtilityPolicy{}, nil
	case "coefficient":
		return CoefficientPolicy{}, nil
	default:
		return nil, fmt.Errorf("qos: unknown policy %q", name)
	}
}
