package qos

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestDefaultSpecMatchesPaper(t *testing.T) {
	s := DefaultSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Min != 100 || s.Max != 500 || s.Increment != 50 {
		t.Fatalf("spec %+v", s)
	}
	// Δ=50 gives the paper's 9-state chain; Δ=100 gives the 5-state chain.
	if s.States() != 9 {
		t.Fatalf("states = %d, want 9", s.States())
	}
	s.Increment = 100
	if s.States() != 5 {
		t.Fatalf("states = %d, want 5", s.States())
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec ElasticSpec
		ok   bool
	}{
		{"valid", ElasticSpec{100, 500, 50, 1}, true},
		{"degenerate point range", ElasticSpec{100, 100, 50, 1}, true},
		{"zero min", ElasticSpec{0, 500, 50, 1}, false},
		{"max below min", ElasticSpec{500, 100, 50, 1}, false},
		{"zero increment", ElasticSpec{100, 500, 0, 1}, false},
		{"non-multiple range", ElasticSpec{100, 510, 50, 1}, false},
		{"negative utility", ElasticSpec{100, 500, 50, -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("accepted")
				}
				if !errors.Is(err, ErrInvalidSpec) {
					t.Fatalf("wrong error type: %v", err)
				}
			}
		})
	}
}

func TestBandwidthStateRoundTrip(t *testing.T) {
	s := DefaultSpec()
	for i := 0; i < s.States(); i++ {
		bw := s.Bandwidth(i)
		j, err := s.StateOf(bw)
		if err != nil {
			t.Fatal(err)
		}
		if j != i {
			t.Fatalf("round trip %d -> %v -> %d", i, bw, j)
		}
	}
	if s.Bandwidth(0) != s.Min || s.Bandwidth(s.States()-1) != s.Max {
		t.Fatal("endpoints wrong")
	}
}

func TestStateOfRejectsOffLevels(t *testing.T) {
	s := DefaultSpec()
	for _, bw := range []Kbps{0, 99, 125, 501, 1000} {
		if _, err := s.StateOf(bw); err == nil {
			t.Fatalf("bandwidth %v accepted", bw)
		}
	}
}

func TestBandwidthPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DefaultSpec().Bandwidth(9)
}

func TestKbpsString(t *testing.T) {
	if Kbps(500).String() != "500Kbps" {
		t.Fatalf("got %q", Kbps(500).String())
	}
	if Kbps(10000).String() != "10Mbps" {
		t.Fatalf("got %q", Kbps(10000).String())
	}
	if Kbps(1500).String() != "1500Kbps" {
		t.Fatalf("got %q", Kbps(1500).String())
	}
}

func TestMaxUtilityPolicy(t *testing.T) {
	p := MaxUtilityPolicy{}
	cands := []GrowthCandidate{
		{Utility: 1, ExtraIncrements: 0, Order: 0},
		{Utility: 3, ExtraIncrements: 5, Order: 1},
		{Utility: 2, ExtraIncrements: 0, Order: 2},
	}
	if got := Pick(p, cands); got != 1 {
		t.Fatalf("Next = %d, want the utility-3 candidate", got)
	}
	// Ties by utility: fewer extras wins.
	cands = []GrowthCandidate{
		{Utility: 2, ExtraIncrements: 4, Order: 0},
		{Utility: 2, ExtraIncrements: 1, Order: 1},
	}
	if got := Pick(p, cands); got != 1 {
		t.Fatalf("tie broke wrong: %d", got)
	}
	// Full tie: lower order wins.
	cands = []GrowthCandidate{
		{Utility: 2, ExtraIncrements: 1, Order: 5},
		{Utility: 2, ExtraIncrements: 1, Order: 3},
	}
	if got := Pick(p, cands); got != 1 {
		t.Fatalf("order tiebreak wrong: %d", got)
	}
}

func TestCoefficientPolicyProportional(t *testing.T) {
	p := CoefficientPolicy{}
	// Utilities 1 and 3: after many grants, shares approach 1:3.
	counts := []int{0, 0}
	cands := []GrowthCandidate{
		{Utility: 1, Order: 0},
		{Utility: 3, Order: 1},
	}
	for i := 0; i < 400; i++ {
		cands[0].ExtraIncrements = counts[0]
		cands[1].ExtraIncrements = counts[1]
		counts[Pick(p, cands)]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("shares %v, ratio %v want ~3", counts, ratio)
	}
}

func TestCoefficientPolicyZeroUtilityLast(t *testing.T) {
	p := CoefficientPolicy{}
	cands := []GrowthCandidate{
		{Utility: 0, ExtraIncrements: 0, Order: 0},
		{Utility: 0.1, ExtraIncrements: 100, Order: 1},
	}
	if got := Pick(p, cands); got != 1 {
		t.Fatalf("zero-utility candidate preferred")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"max-utility", "coefficient"} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("Name() = %q, want %q", p.Name(), name)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// Property: both policies always return a valid index, and for equal
// utilities the coefficient policy equalizes extras (max spread ≤ 1).
func TestQuickPoliciesWellBehaved(t *testing.T) {
	f := func(nRaw uint8, rounds uint8) bool {
		n := int(nRaw%8) + 1
		cands := make([]GrowthCandidate, n)
		for i := range cands {
			cands[i] = GrowthCandidate{Utility: 1, Order: int64(i)}
		}
		coef := CoefficientPolicy{}
		maxu := MaxUtilityPolicy{}
		for r := 0; r < int(rounds); r++ {
			i := Pick(coef, cands)
			if i < 0 || i >= n {
				return false
			}
			cands[i].ExtraIncrements++
			if j := Pick(maxu, cands); j < 0 || j >= n {
				return false
			}
		}
		minE, maxE := cands[0].ExtraIncrements, cands[0].ExtraIncrements
		for _, c := range cands {
			if c.ExtraIncrements < minE {
				minE = c.ExtraIncrements
			}
			if c.ExtraIncrements > maxE {
				maxE = c.ExtraIncrements
			}
		}
		return maxE-minE <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// oracleLess is the pair of hand-written comparators the policies had
// before they were defined by ranks, kept here verbatim as the oracle.
var oracleLess = map[string]func(a, b GrowthCandidate) bool{
	"max-utility": func(a, b GrowthCandidate) bool {
		if a.Utility != b.Utility {
			return a.Utility > b.Utility
		}
		if a.ExtraIncrements != b.ExtraIncrements {
			return a.ExtraIncrements < b.ExtraIncrements
		}
		return a.Order < b.Order
	},
	"coefficient": func(a, b GrowthCandidate) bool {
		propKey := func(c GrowthCandidate) float64 {
			if c.Utility <= 0 {
				return 1e300
			}
			return float64(c.ExtraIncrements+1) / c.Utility
		}
		ka, kb := propKey(a), propKey(b)
		if ka != kb {
			return ka < kb
		}
		return a.Order < b.Order
	},
}

// Property: for both policies, rank order is the old comparator's order, on
// pairs drawn to collide — zero utilities, equal keys (utility and extras
// scaled together), equal Order — as well as on arbitrary ones.
func TestQuickRankMatchesOldLess(t *testing.T) {
	utilities := []float64{0, 0.5, 1, 2, 3, 4}
	f := func(ua, ub, ea, eb, oa, ob uint8, scaled bool) bool {
		a := GrowthCandidate{Utility: utilities[int(ua)%len(utilities)], ExtraIncrements: int(ea % 9), Order: int64(oa % 4)}
		b := GrowthCandidate{Utility: utilities[int(ub)%len(utilities)], ExtraIncrements: int(eb % 9), Order: int64(ob % 4)}
		if scaled && a.Utility > 0 {
			// (e+1)/u equal for both: b = 2a in utility and in e+1.
			b.Utility, b.ExtraIncrements = 2*a.Utility, 2*a.ExtraIncrements+1
		}
		for _, p := range []Policy{MaxUtilityPolicy{}, CoefficientPolicy{}} {
			less := oracleLess[p.Name()]
			if p.Rank(a).Less(p.Rank(b)) != less(a, b) || p.Rank(b).Less(p.Rank(a)) != less(b, a) {
				t.Logf("%s: a=%+v b=%+v ranks %+v %+v", p.Name(), a, b, p.Rank(a), p.Rank(b))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Bandwidth/StateOf are mutual inverses for arbitrary valid specs.
func TestQuickSpecRoundTrip(t *testing.T) {
	f := func(minRaw, stepsRaw, incRaw uint8) bool {
		min := Kbps(minRaw) + 1
		inc := Kbps(incRaw%100) + 1
		steps := Kbps(stepsRaw % 20)
		s := ElasticSpec{Min: min, Max: min + steps*inc, Increment: inc, Utility: 1}
		if s.Validate() != nil {
			return false
		}
		if s.States() != int(steps)+1 {
			return false
		}
		for i := 0; i < s.States(); i++ {
			j, err := s.StateOf(s.Bandwidth(i))
			if err != nil || j != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
