package qos

import "fmt"

// The references the policy and spec tests, and the package example, use.

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

// StateOf returns the state index for a bandwidth value. The bandwidth must
// be a valid level for the spec.
func (s ElasticSpec) StateOf(bw Kbps) (int, error) {
	if bw < s.Min || bw > s.Max || (bw-s.Min)%s.Increment != 0 {
		return 0, fmt.Errorf("%w: bandwidth %v is not a level of [%v..%v, Δ=%v]",
			ErrInvalidSpec, bw, s.Min, s.Max, s.Increment)
	}
	return int((bw - s.Min) / s.Increment), nil
}
