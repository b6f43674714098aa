package manager

import (
	"math/bits"
	"slices"

	"drqos/internal/qos"
)

// growItem is one growth candidate: its slot, the level it starts the
// filling at, and the policy rank of its current level.
type growItem struct {
	slot  int32
	level int32 // the starting level, for sort's counting pass; a re-rank leaves it stale
	rank  qos.Rank
}

// growQueue serves growth candidates least rank first from two runs, each
// sorted by rank: the candidates the filling starts with, sorted once, and
// the ones a grant re-ranked. The next candidate served is the lesser of the
// two heads; since both runs are sorted, that is the least rank in the queue,
// the candidate a heap would serve.
//
// The starting run is ordered without comparisons where it can be. Under
// one positive utility either policy ranks by (level, Order), so candidates
// added in ID order (Order is the ID) come out in rank order from a stable
// counting pass over their levels. An arrival adds them so; one Less pass
// over the result checks it, and any other run is sorted by rank.
//
// A grant never lowers a rank, and under a uniform utility (every production
// spec, either policy) it maps the served order onto re-ranks in the same
// order, so a re-ranked candidate belongs at the promoted run's tail: an
// append. Mixed utilities take a binary search and a shift instead.
//
// The promoted run is a ring as long as the sorted run: every item in it was
// served from the sorted run, once, so it never holds more, however many
// grants the filling makes. Every array is kept across events.
type growQueue struct {
	added  []growItem // the starting candidates, in the order added
	top    int        // their highest level
	sorted []growItem // sorted[next:] is unserved
	next   int
	ring   []growItem // the promoted run: at(0) … at(size-1)
	head   int
	size   int
	tally  []int32 // the counting pass's per-level positions
	// counted reports that the last sort kept the counting pass's order.
	counted bool
}

// reset empties the queue, keeping its arrays.
func (q *growQueue) reset() { q.added, q.top, q.sorted, q.next = q.added[:0], 0, q.sorted[:0], 0 }

// add enters a starting candidate at the given level; sort must follow
// before the first pop.
func (q *growQueue) add(slot int32, level int, rank qos.Rank) {
	q.added = append(q.added, growItem{slot: slot, level: int32(level), rank: rank})
	q.top = max(q.top, level)
}

// sort orders the starting candidates and empties the promoted run. The
// counting pass costs a step per candidate and per level, a sort about
// log₂ n comparisons per candidate, so levels beyond both 64 and n·log₂ n
// go straight to the sort.
func (q *growQueue) sort() {
	n := len(q.added)
	q.sorted = slices.Grow(q.sorted[:0], n)[:n]
	q.counted = q.top <= max(64, n*bits.Len(uint(n))) && q.countLevels()
	if !q.counted {
		copy(q.sorted, q.added)
		sortItems(q.sorted, 2*bits.Len(uint(n)))
	}
	if cap(q.ring) < n {
		q.ring = make([]growItem, cap(q.sorted)) // grows as often as sorted does
	}
	q.ring, q.head, q.size = q.ring[:n], 0, 0
}

// countLevels places the starting candidates in sorted by level, stably,
// and reports whether that is rank order.
func (q *growQueue) countLevels() bool {
	q.tally = slices.Grow(q.tally[:0], q.top+1)[:q.top+1]
	clear(q.tally)
	for _, it := range q.added {
		q.tally[it.level]++
	}
	at := int32(0)
	for l, c := range q.tally {
		q.tally[l], at = at, at+c
	}
	for _, it := range q.added {
		q.sorted[q.tally[it.level]] = it
		q.tally[it.level]++
	}
	for i := 1; i < len(q.sorted); i++ {
		if q.sorted[i].rank.Less(q.sorted[i-1].rank) {
			return false
		}
	}
	return true
}

// at is the promoted run's k-th least item.
func (q *growQueue) at(k int) *growItem {
	if k += q.head; k >= len(q.ring) {
		k -= len(q.ring)
	}
	return &q.ring[k]
}

// pop removes and returns the candidate of least rank, or reports that the
// queue is empty.
func (q *growQueue) pop() (growItem, bool) {
	if q.next < len(q.sorted) && (q.size == 0 || q.sorted[q.next].rank.Less(q.ring[q.head].rank)) {
		q.next++
		return q.sorted[q.next-1], true
	}
	if q.size == 0 {
		return growItem{}, false
	}
	it := q.ring[q.head]
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.size--
	return it, true
}

// push takes back the item pop last returned, re-ranked, into the promoted
// run at its place.
func (q *growQueue) push(it growItem) {
	k := q.size
	if k > 0 && it.rank.Less(q.at(k-1).rank) {
		// The first item ranked above it; at(size-1) is one.
		lo, hi := 0, k-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if it.rank.Less(q.at(mid).rank) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if k = lo; k < q.size-k {
			// Shift the lesser items down one, into the slot before head.
			if q.head == 0 {
				q.head = len(q.ring)
			}
			q.head--
			for j := 0; j < k; j++ {
				*q.at(j) = *q.at(j + 1)
			}
		} else {
			for j := q.size; j > k; j-- {
				*q.at(j) = *q.at(j - 1)
			}
		}
	}
	*q.at(k) = it
	q.size++
}

// sortItems sorts a by rank: a quicksort with the rank comparison inlined,
// since through slices.SortFunc every comparison is an indirect call, and
// this sort is the filling's largest per-candidate cost. A slice still
// unsorted after depth levels of partitions goes to slices.SortFunc, which
// bounds the worst case.
func sortItems(a []growItem, depth int) {
	for len(a) > 12 {
		if depth == 0 {
			slices.SortFunc(a, func(x, y growItem) int { return x.rank.Compare(y.rank) })
			return
		}
		depth--
		// The median of the first, middle and last items pivots, from a[0].
		m, z := len(a)/2, len(a)-1
		if a[m].rank.Less(a[0].rank) {
			a[0], a[m] = a[m], a[0]
		}
		if a[z].rank.Less(a[m].rank) {
			a[m], a[z] = a[z], a[m]
			if a[m].rank.Less(a[0].rank) {
				a[0], a[m] = a[m], a[0]
			}
		}
		a[0], a[m] = a[m], a[0]
		p := a[0].rank
		i, j := 1, z
		for {
			for i <= j && a[i].rank.Less(p) {
				i++
			}
			for i <= j && p.Less(a[j].rank) {
				j--
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
			i, j = i+1, j-1
		}
		a[0], a[j] = a[j], a[0]
		// Recurse into the shorter side and loop on the longer.
		if j < z-j {
			sortItems(a[:j], depth)
			a = a[j+1:]
		} else {
			sortItems(a[j+1:], depth)
			a = a[:j]
		}
	}
	for i := 1; i < len(a); i++ {
		x, j := a[i], i
		for ; j > 0 && x.rank.Less(a[j-1].rank); j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}

// An adaptation event plans on scratch and writes the ledger once. plan
// loads the candidates' levels into their slots and the growth headroom of
// every link they cross into work.room; squeezeInPlan and an arrival's
// reservation adjust that picture, fill runs the §3.2 water-filling over it,
// and commit writes the connections whose level changed: decreases first,
// then increases, so the ledger never holds more than capacity in between.
//
// The candidates must cover every primary on a directed link where capacity
// changed (new route, released route, activated backup links); channels with
// no such link were maximal before the event and stay maximal. Their order
// is immaterial to the outcome: ranks are totally ordered (Order breaks
// every tie), so which candidate is served next does not depend on how the
// queue was filled. It matters to the cost: candidates in ID order let the
// queue skip its sort (growQueue).

// plan loads cands into the filling's scratch at their ledger levels, and
// the headroom of every link on their routes. Nothing adjusts the plan
// before plan returns, so a link reads the same whichever candidate loads
// it: when the candidates' routes have fewer hops than the graph has
// directed links each hop reads its link, otherwise one pass loads every
// link once. Each form is the slower one where the other is used: hop by
// hop, an arrival at 2 000 standing connections reads its ≈ 1 000
// candidates' 354 links some 4 000 times; in one pass, a small event walks
// every link's ledger entry to use a few dozen. The links an event then adjusts (a
// squeeze, an arrival's route) are on candidates' routes, so work.room is
// valid wherever the event reads it.
func (m *Manager) plan(cands []int32) {
	w := &m.work
	hops := 0
	for _, s := range cands {
		sl := &m.slots[s]
		sl.level = sl.held
		hops += len(sl.dirs)
	}
	if hops >= len(w.room) {
		m.net.LoadFreeForGrowth(w.room)
		return
	}
	for _, s := range cands {
		for _, d := range m.slots[s].dirs {
			w.room[d] = m.net.FreeForGrowth(d)
		}
	}
}

// squeezeInPlan retreats planned slots to their minima on scratch only
// (§3.2: the directly chained channels "release their extra resources"):
// level 0, and the extras they hold in the ledger (held increments above
// the minimum) credited to the headroom of their links.
func (m *Manager) squeezeInPlan(slots []int32) {
	for _, s := range slots {
		sl := &m.slots[s]
		if sl.held > 0 {
			extra := qos.Kbps(sl.held) * sl.inc
			for _, d := range sl.dirs {
				m.work.room[d] += extra
			}
		}
		sl.level = 0
	}
}

// fill performs the incremental, utility-weighted water-filling of §3.2 on
// the planned scratch: while any candidate can grow by one increment on
// every link of its route, the configured policy's least rank receives it.
//
// Correctness of the lazy pruning: headroom only DECREASES while increments
// are granted, so a channel observed unable to grow is dropped for good.
func (m *Manager) fill(cands []int32) {
	w := &m.work
	policy := m.cfg.Policy
	q := &w.grow
	q.reset()
	for _, s := range cands {
		if sl := &m.slots[s]; m.canGrow(sl) {
			q.add(s, sl.level, policy.Rank(sl.key()))
		}
	}
	q.sort()
	for it, ok := q.pop(); ok; it, ok = q.pop() {
		sl := &m.slots[it.slot]
		if !m.canGrow(sl) {
			continue // headroom only shrinks: permanently ineligible
		}
		for _, d := range sl.dirs {
			w.room[d] -= sl.inc
		}
		sl.level++
		it.rank = policy.Rank(sl.key())
		q.push(it)
	}
}

// commit writes the planned level of every candidate that ends lower
// (grow false) or higher (grow true) than it holds in the ledger.
func (m *Manager) commit(cands []int32, grow bool) error {
	for _, s := range cands {
		sl := &m.slots[s]
		if sl.level == sl.held || (sl.level > sl.held) != grow {
			continue
		}
		if err := m.net.AdjustPrimary(sl.id, sl.dirs, sl.conn.Spec.Bandwidth(sl.level)); err != nil {
			// The filling counted room on every link and decreases went
			// first; failure is corruption.
			return wrapViolation(err, "commit level %d of conn %d", sl.level, sl.id)
		}
		if err := m.setLevel(s, sl.level); err != nil {
			return err
		}
	}
	return nil
}

// redistribute plans cands from the ledger with squeezed retreated to their
// minima, fills, and commits the difference.
func (m *Manager) redistribute(cands, squeezed []int32) error {
	m.plan(cands)
	m.squeezeInPlan(squeezed)
	m.fill(cands)
	if err := m.commit(cands, false); err != nil {
		return err
	}
	return m.commit(cands, true)
}

// key is the policy candidate of the slot's connection at its scratch level.
func (sl *connSlot) key() qos.GrowthCandidate {
	return qos.GrowthCandidate{Utility: sl.utility, ExtraIncrements: sl.level, Order: int64(sl.id)}
}

// canGrow reports whether the slot's connection, at its scratch level, is
// below its ceiling and every directed link of its primary has room for one
// more increment.
func (m *Manager) canGrow(sl *connSlot) bool {
	if sl.level >= sl.ceiling {
		return false
	}
	for _, d := range sl.dirs {
		if m.work.room[d] < sl.inc {
			return false
		}
	}
	return true
}
