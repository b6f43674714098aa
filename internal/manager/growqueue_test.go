package manager

import (
	"slices"
	"testing"

	"drqos/internal/channel"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/topology"
)

// growStream is a filling without a manager: candidates with their rank
// inputs, and a script of refusals standing in for canGrow's link checks.
type growStream struct {
	policy    qos.Policy
	utilities []float64 // candidate i has Order i
	levels    []int     // starting levels; every ceiling is maxLevel
	deny      []bool    // deny[k] refuses the k-th eligibility check
}

const maxLevel = 8

var streamUtilities = []float64{0, 0.3, 1, 2, 4}

// decodeGrowStream reads a stream from bytes: the policy, then one byte per
// candidate (utility and starting level) up to the candidate count, then one
// refusal bit per eligibility check; checks past the end are granted.
func decodeGrowStream(data []byte) growStream {
	s := growStream{policy: qos.CoefficientPolicy{}}
	if len(data) < 2 {
		return s
	}
	if data[0]&1 == 1 {
		s.policy = qos.MaxUtilityPolicy{}
	}
	n := min(int(data[1]%64), len(data)-2)
	for _, b := range data[2 : 2+n] {
		s.utilities = append(s.utilities, streamUtilities[int(b)%len(streamUtilities)])
		s.levels = append(s.levels, int(b)/len(streamUtilities)%(maxLevel+1))
	}
	for _, b := range data[2+n:] {
		for bit := range 8 {
			s.deny = append(s.deny, b&(1<<bit) != 0)
		}
	}
	return s
}

// run drives the filling's loop over the stream, picking the next candidate
// with next and telling it about a refusal (drop) or a grant (regrow); it
// returns the candidates in the order they were served.
func (s growStream) run(start func(eligible []int32, levels []int), next func() (int32, bool), drop func(), regrow func(i int32)) []int32 {
	levels := slices.Clone(s.levels)
	checks := 0
	canGrow := func(i int32) bool {
		refused := checks < len(s.deny) && s.deny[checks]
		checks++
		return levels[i] < maxLevel && !refused
	}
	var eligible []int32
	for i := range s.levels {
		if canGrow(int32(i)) {
			eligible = append(eligible, int32(i))
		}
	}
	start(eligible, levels)
	var served []int32
	for i, ok := next(); ok; i, ok = next() {
		served = append(served, i)
		if !canGrow(i) {
			drop()
			continue
		}
		levels[i]++
		regrow(i)
	}
	return served
}

func (s growStream) candidate(i int32, level int) qos.GrowthCandidate {
	return qos.GrowthCandidate{Utility: s.utilities[i], ExtraIncrements: level, Order: int64(i)}
}

// serveQueue serves the stream from a growQueue's heap, turn by turn as fill
// does: the top is served, then re-ranked after a grant or replaced by the
// last item after a refusal, and sifted down.
func (s growStream) serveQueue() []int32 {
	var q growQueue
	var levels []int
	return s.run(
		func(eligible []int32, l []int) {
			levels = l
			for _, i := range eligible {
				q.add(i, levels[i], s.policy.Rank(s.candidate(i, levels[i])))
			}
			q.heapify()
		},
		func() (int32, bool) {
			if len(q.items) == 0 {
				return 0, false
			}
			return q.items[0].slot, true
		},
		func() {
			last := len(q.items) - 1
			q.items[0], q.items = q.items[last], q.items[:last]
			q.down(0)
		},
		func(i int32) {
			q.items[0].rank = s.policy.Rank(s.candidate(i, levels[i]))
			q.down(0)
		})
}

// serveScan is the reference: every step ranks every live candidate afresh
// and serves the first of the best.
func (s growStream) serveScan() []int32 {
	var live []int32
	var levels []int
	at := -1
	return s.run(
		func(eligible []int32, l []int) { live, levels = eligible, l },
		func() (int32, bool) {
			if len(live) == 0 {
				return 0, false
			}
			var best qos.Rank
			for j, i := range live {
				if r := s.policy.Rank(s.candidate(i, levels[i])); j == 0 || r.Less(best) {
					at, best = j, r
				}
			}
			return live[at], true
		},
		func() { live = slices.Delete(live, at, at+1) },
		func(int32) {})
}

func checkGrowQueue(t *testing.T, s growStream) {
	t.Helper()
	got, want := s.serveQueue(), s.serveScan()
	if !slices.Equal(got, want) {
		t.Fatalf("%s, utilities %v, levels %v, deny %v:\nqueue served %v\n scan served %v",
			s.policy.Name(), s.utilities, s.levels, s.deny, got, want)
	}
}

// TestGrowQueueOrder holds the heap to a linear scan that ranks every live
// candidate afresh at every step: random streams under both policies, mixed
// utilities (whose re-ranks may sink below candidates of higher levels) and
// random refusals.
func TestGrowQueueOrder(t *testing.T) {
	src := rng.New(5)
	for range 2000 {
		data := make([]byte, 2+src.Intn(80))
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
		// A refusal in two of every three checks would end most streams at
		// once: keep one in four.
		for i := 2 + int(data[1]%64); i < len(data); i++ {
			data[i] &= byte(src.Intn(256)) & byte(src.Intn(256))
		}
		checkGrowQueue(t, decodeGrowStream(data))
	}
}

// TestGrowQueueServesZeroUtilityAgain: a zero-utility candidate re-ranks to
// the rank it had under the coefficient policy, so after a grant it is still
// the least and must be served again at once, up to its ceiling.
func TestGrowQueueServesZeroUtilityAgain(t *testing.T) {
	s := growStream{policy: qos.CoefficientPolicy{}, utilities: []float64{0, 0, 0}, levels: []int{6, 3, 7}}
	checkGrowQueue(t, s)
	want := []int32{0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2}
	if got := s.serveQueue(); !slices.Equal(got, want) {
		t.Fatalf("served %v, want %v", got, want)
	}
}

// FuzzGrowQueue decodes streams from the fuzz input and holds the queue to
// the scan.
func FuzzGrowQueue(f *testing.F) {
	f.Add([]byte{0, 5, 0, 1, 2, 3, 4})
	f.Add([]byte{1, 5, 4, 9, 14, 19, 24, 0x55})
	f.Add([]byte{0, 8, 1, 3, 2, 4, 8, 13, 0, 5, 0x21, 0x84})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkGrowQueue(t, decodeGrowStream(data))
	})
}

// TestGrowQueueCountedRun: candidates added in ID order under one positive
// utility, placed by byLevel's counting pass, come out in rank order under
// both policies. That is the property fillRounds rests on: for such a
// filling, (level, ID) order is the order the heap serves.
func TestGrowQueueCountedRun(t *testing.T) {
	byRank := func(a, b growItem) int {
		switch {
		case a.rank.Less(b.rank):
			return -1
		case b.rank.Less(a.rank):
			return 1
		}
		return 0
	}
	src := rng.New(21)
	for _, policy := range []qos.Policy{qos.CoefficientPolicy{}, qos.MaxUtilityPolicy{}} {
		for range 300 {
			u := streamUtilities[1+src.Intn(len(streamUtilities)-1)]
			s := growStream{policy: policy}
			for range src.Intn(80) {
				s.utilities = append(s.utilities, u)
				s.levels = append(s.levels, src.Intn(maxLevel))
			}
			var q growQueue
			for i, l := range s.levels {
				q.add(int32(i), l, s.policy.Rank(s.candidate(int32(i), l)))
			}
			if !q.byLevel() {
				t.Fatalf("%s, utility %v, levels %v: one-utility run not counted", policy.Name(), u, s.levels)
			}
			want := slices.Clone(q.added)
			slices.SortStableFunc(want, byRank)
			if !slices.Equal(q.items, want) {
				t.Fatalf("%s, levels %v: counted run %v, rank order %v", policy.Name(), s.levels, q.items, want)
			}
			checkGrowQueue(t, s)
		}
	}
}

// TestArrivalFillIsCounted: an arrival's filling is served in rounds
// whenever its candidates share one utility, at a standing population on
// the paper's graph under both policies; with mixed utilities some arrivals
// take the heap.
func TestArrivalFillIsCounted(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 100, Alpha: 0.33, Beta: 0.1176}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	one := []qos.ElasticSpec{qos.DefaultSpec()}
	mixed := []qos.ElasticSpec{qos.DefaultSpec(), {Min: 100, Max: 500, Increment: 50, Utility: 2}, {Min: 50, Max: 450, Increment: 100, Utility: 4}}
	for _, tc := range []struct {
		name   string
		policy qos.Policy
		specs  []qos.ElasticSpec
	}{
		{"coefficient", qos.CoefficientPolicy{}, one},
		{"max-utility", qos.MaxUtilityPolicy{}, one},
		{"mixed", qos.CoefficientPolicy{}, mixed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mustMgr(t, g, Config{Capacity: 10000, Policy: tc.policy})
			src := rng.New(3)
			var alive []channel.ConnID
			counted, filled := 0, 0
			for i := range 1200 {
				a := topology.NodeID(src.Intn(g.NumNodes()))
				b := topology.NodeID(src.Intn(g.NumNodes() - 1))
				if b >= a {
					b++
				}
				before := m.work.counts
				rep, err := m.Establish(a, b, tc.specs[i%len(tc.specs)])
				if err != nil {
					continue
				}
				alive = append(alive, rep.Conn.ID)
				if len(m.work.grow.added) > 1 {
					filled++
					if c := m.work.counts; c.rounds > before.rounds && c.popped == before.popped {
						counted++
					}
				}
				if len(alive) > 400 {
					if _, err := m.Terminate(alive[0]); err != nil {
						t.Fatal(err)
					}
					alive = alive[1:]
				}
			}
			checkMgr(t, m)
			t.Logf("%d of %d arrival fills counted", counted, filled)
			if filled < 500 {
				t.Fatalf("only %d arrivals filled more than one candidate", filled)
			}
			if one := len(tc.specs) == 1; one && counted != filled || !one && counted == filled {
				t.Fatalf("%d of %d arrival fills counted", counted, filled)
			}
			// One utility is served in rounds, never from the queue.
			if one, c := len(tc.specs) == 1, m.work.counts; c.rounds == 0 || one != (c.popped == 0) {
				t.Fatalf("%d rounds, %d queue pops", c.rounds, c.popped)
			}
		})
	}
}
