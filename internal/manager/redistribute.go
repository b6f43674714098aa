package manager

import (
	"math/bits"
	"slices"

	"drqos/internal/network"
	"drqos/internal/qos"
	"drqos/internal/topology"
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
// counting pass over their levels. Every event adds them so; one Less pass
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
// loads the growth headroom the filling reads into work.room; squeezeInPlan
// and an arrival's reservation adjust that picture, fill runs the §3.2
// water-filling over it, and commit writes the connections whose level
// changed: decreases first, then increases, so the ledger never holds more
// than capacity in between.
//
// The candidates must cover every primary on a directed link where capacity
// changed (new route, released route, activated backup links); channels with
// no such link were maximal before the event and stay maximal. Ranks are
// totally ordered (Order breaks every tie), so which candidate is served
// next does not depend on how the queue was filled; the candidates enter it
// in ID order, which lets it skip its sort (growQueue).

// plan loads the growth headroom the filling reads into work.room for the
// candidates, cands and the arriving slot unless it is -1, and returns the
// scratch level of every slot the event has touched to the level the ledger
// holds (a refused arrival re-plans over its own first plan); every other
// slot's scratch level already is its held level.
//
// It takes one of two forms by size, and the filling follows (work.walk).
// When the candidates' routes have fewer hops than the graph has directed
// links, it lists the candidates and loads their links hop by hop, and the
// filling checks each candidate with canGrow. Otherwise it loads every link
// in one pass, and the filling starts from set algebra (growable). Each form
// is the slower one where the other is used: the walk visits every chained
// connection, ≈ 1 070 per arrival at 2 000 standing; the pass reads every
// link's ledger entry and scans every link, ≈ 1.4 µs, for an event that
// moves a dozen connections at 100 standing.
func (m *Manager) plan(cands network.SlotSet, arrival int32) {
	w := &m.work
	w.members = w.touched.AppendMembers(w.members[:0])
	for _, s := range w.members {
		m.slots[s].level = m.slots[s].held
	}
	w.walked, w.walk = w.walked[:0], false
	if cands.Count() < len(w.room) {
		w.walked = cands.AppendMembers(w.walked)
		if arrival >= 0 {
			w.walked = append(w.walked, arrival)
		}
		hops := 0
		for _, s := range w.walked {
			hops += len(m.slots[s].dirs)
		}
		w.walk = hops < len(w.room)
	}
	if !w.walk {
		m.net.LoadFreeForGrowth(w.room)
		return
	}
	for _, s := range w.walked {
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
		m.touch(s)
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

// growable sets work.growable to the members of cands that can take one
// increment on the plan as it stands before the first grant, where room is
// fixed: cands, less the slots on a link with room below the least
// increment in the table (work.bad), less the slots at their ceiling. The
// squeezed members are planned at level 0, so they are at their ceiling
// only if rigid. For a slot whose increment is the least this is canGrow
// exactly; fill checks any other member with canGrow.
func (m *Manager) growable(cands network.SlotSet, squeezed []int32) {
	w := &m.work
	w.bad.Reset(len(cands) << 6)
	for d, room := range w.room {
		if room < m.minInc {
			w.bad.Or(m.net.SlotsOn(topology.DirLinkID(d)))
		}
	}
	w.growable = append(w.growable[:0], cands...)
	w.growable.AndNot(m.full)
	for _, s := range squeezed {
		if m.slots[s].ceiling > 0 {
			w.growable.Add(s)
		}
	}
	w.growable.AndNot(w.bad)
}

// byBit reports whether work.bad decides slot s's room exactly: the plan
// took its one-pass form, some link set holds s (it is not the arrival), and
// its increment is the least.
func (m *Manager) byBit(s, arrival int32) bool {
	return !m.work.walk && s != arrival && m.slots[s].inc == m.minInc
}

// fill performs the incremental, utility-weighted water-filling of §3.2 on
// the planned scratch: while any candidate can grow by one increment on
// every link of its route, the configured policy's least rank receives it.
// The candidates are cands, of which squeezed were squeezed in the plan, and
// the arriving slot unless it is -1: it holds no reservation yet, so no
// link set names it, and its ID is the largest, so it enters the queue
// last.
//
// A served candidate is checked again, since grants drain links. Where bad
// decides (byBit) that is one bit: each grant keeps bad equal to the union
// of the sets on the links short of the least increment. Anything else walks
// its route (canGrow). Correctness of the lazy pruning: headroom only
// DECREASES while increments are granted, so a channel observed unable to
// grow is dropped for good.
func (m *Manager) fill(cands network.SlotSet, squeezed []int32, arrival int32) {
	w := &m.work
	policy := m.cfg.Policy
	q := &w.grow
	q.reset()
	start := w.walked
	if !w.walk {
		m.growable(cands, squeezed)
		w.members = w.growable.AppendMembers(w.members[:0])
		if arrival >= 0 {
			w.members = append(w.members, arrival)
		}
		start = w.members
	}
	for _, s := range start {
		if sl := &m.slots[s]; m.byBit(s, arrival) || m.canGrow(sl) {
			q.add(s, sl.level, policy.Rank(m.key(s)))
		}
	}
	q.sort()
	for it, ok := q.pop(); ok; it, ok = q.pop() {
		sl := &m.slots[it.slot]
		if m.byBit(it.slot, arrival) {
			if sl.level >= sl.ceiling || w.bad.Has(it.slot) {
				continue
			}
		} else if !m.canGrow(sl) {
			continue // headroom only shrinks: permanently ineligible
		}
		m.touch(it.slot)
		for _, d := range sl.dirs {
			if w.room[d] -= sl.inc; !w.walk && w.room[d] < m.minInc && w.room[d]+sl.inc >= m.minInc {
				w.bad.Or(m.net.SlotsOn(d)) // d has just run short: bad stays exact
			}
		}
		sl.level++
		it.rank = policy.Rank(m.key(it.slot))
		q.push(it)
	}
}

// commit writes the planned level of every touched slot that ends lower
// (grow false) or higher (grow true) than it holds in the ledger, in ID
// order.
func (m *Manager) commit(grow bool) error {
	w := &m.work
	w.members = w.touched.AppendMembers(w.members[:0])
	for _, s := range w.members {
		sl := &m.slots[s]
		if sl.level == sl.held || (sl.level > sl.held) != grow {
			continue
		}
		if err := m.net.AdjustPrimary(m.slotID[s], sl.dirs, sl.conn.Spec.Bandwidth(sl.level)); err != nil {
			// The filling counted room on every link and decreases went
			// first; failure is corruption.
			return wrapViolation(err, "commit level %d of conn %d", sl.level, m.slotID[s])
		}
		if err := m.setLevel(s, sl.level); err != nil {
			return err
		}
	}
	return nil
}

// redistribute plans cands from the ledger with squeezed retreated to their
// minima, fills, and commits the difference.
func (m *Manager) redistribute(cands network.SlotSet, squeezed []int32) error {
	m.plan(cands, -1)
	m.squeezeInPlan(squeezed)
	m.fill(cands, squeezed, -1)
	if err := m.commit(false); err != nil {
		return err
	}
	return m.commit(true)
}

// key is the policy candidate of slot s's connection at its scratch level.
func (m *Manager) key(s int32) qos.GrowthCandidate {
	return qos.GrowthCandidate{Utility: m.slots[s].utility, ExtraIncrements: m.slots[s].level, Order: int64(m.slotID[s])}
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
