package manager

import (
	"math"
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
	level int32 // the starting level, for byLevel; a re-rank leaves it stale
	rank  qos.Rank
}

// growQueue holds the filling's starting candidates. A filling the policy
// ranks by (level, ID) reads them placed by level (byLevel, for fillRounds);
// any other, such as one of mixed utilities, serves them from a binary
// min-heap on rank, least rank at the top. Every array is kept across
// events.
type growQueue struct {
	added []growItem // the starting candidates, in the order added
	top   int        // their highest level
	items []growItem // the candidates placed by level, or the heap
	tally []int32    // the counting pass's per-level positions
}

// reset empties the queue, keeping its arrays.
func (q *growQueue) reset() { q.added, q.top, q.items = q.added[:0], 0, q.items[:0] }

// add enters a starting candidate at the given level.
func (q *growQueue) add(slot int32, level int, rank qos.Rank) {
	q.added = append(q.added, growItem{slot: slot, level: int32(level), rank: rank})
	q.top = max(q.top, level)
}

// byLevel sizes items for the starting candidates and, unless their levels
// make it the dearer choice, places them there by level, stably, and
// reports that it did. The counting pass costs a step per candidate and per
// level, a heap about log₂ n comparisons per candidate, so levels beyond
// both 64 and n·log₂ n are left to the heap.
func (q *growQueue) byLevel() bool {
	n := len(q.added)
	q.items = slices.Grow(q.items[:0], n)[:n]
	if q.top > max(64, n*bits.Len(uint(n))) {
		return false
	}
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
		q.items[q.tally[it.level]] = it
		q.tally[it.level]++
	}
	return true
}

// heapify builds the heap in items from the starting candidates.
func (q *growQueue) heapify() {
	q.items = append(q.items[:0], q.added...)
	for i := len(q.items)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// down sifts item i down: it trades places with its lesser child while that
// child ranks below it.
func (q *growQueue) down(i int) {
	h := q.items
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].rank.Less(h[c].rank) {
			c++
		}
		if !h[c].rank.Less(h[i].rank) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
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
// next does not depend on how the heap was built; the candidates enter the
// queue in ID order, which lets byLevel place them in (level, ID) order.

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
// A served candidate is checked again (grant), since grants drain links.
// Correctness of the lazy pruning: headroom only DECREASES while increments
// are granted, so a channel observed unable to grow is dropped for good.
// When the policy ranks the candidates by (level, ID), the filling serves
// them in rounds (fillRounds) and ranks nothing; otherwise from the heap.
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
	u, uniform, ceiling := 0.0, true, 0
	for _, s := range start {
		if sl := &m.slots[s]; m.byBit(s, arrival) || m.canGrow(sl) {
			if len(q.added) == 0 {
				u = sl.utility
			}
			uniform = uniform && sl.utility == u
			ceiling = max(ceiling, sl.ceiling)
			q.add(s, sl.level, qos.Rank{})
		}
	}
	if uniform && levelRanked(policy, u, ceiling) && q.byLevel() {
		m.fillRounds(arrival)
		return
	}
	for i := range q.added {
		q.added[i].rank = policy.Rank(m.key(q.added[i].slot))
	}
	q.heapify()
	for len(q.items) > 0 {
		w.counts.popped++
		top := &q.items[0]
		if m.grant(top.slot, arrival) {
			top.rank = policy.Rank(m.key(top.slot))
		} else {
			last := len(q.items) - 1
			*top, q.items = q.items[last], q.items[:last]
		}
		q.down(0)
	}
}

// levelRanked reports whether policy ranks candidates of the one utility u,
// at levels up to top, by (level, ID). MaxUtilityPolicy does for any
// utility that compares equal to itself: its Key is -u and its Tie the
// level. CoefficientPolicy keys (level+1)/u, which rises with the level
// while levels count exactly and both ends are normal floats.
func levelRanked(policy qos.Policy, u float64, top int) bool {
	switch policy.(type) {
	case qos.MaxUtilityPolicy:
		return u == u
	case qos.CoefficientPolicy:
		return top < 1<<20 && 1/u >= 0x1p-1022 && float64(top+1)/u <= math.MaxFloat64
	}
	return false
}

// fillRounds is fill for candidates the policy ranks by (level, ID), placed
// by level in growQueue.items. Rank order is then level by level, each
// level in ID order, so one round serves one level: the starting candidates
// at that level and the ones the last round granted, merged in slot (so ID)
// order, each checked at its turn exactly as the heap would serve it. The
// ones it grants, still in ID order, are the next round's.
func (m *Manager) fillRounds(arrival int32) {
	w := &m.work
	start := w.grow.items
	cur, next := w.rounds[0][:0], w.rounds[1][:0]
	for i, level := 0, int32(0); i < len(start) || len(cur) > 0; level++ {
		if len(cur) == 0 {
			level = start[i].level
		}
		j := i
		for j < len(start) && start[j].level == level {
			j++
		}
		next = next[:0]
		for k := 0; i < j || k < len(cur); {
			var s int32
			if k == len(cur) || i < j && start[i].slot < cur[k] {
				s, i = start[i].slot, i+1
			} else {
				s, k = cur[k], k+1
			}
			if m.grant(s, arrival) {
				next = append(next, s)
			}
		}
		cur, next = next, cur
		w.counts.rounds++
	}
	w.rounds = [2][]int32{cur, next}
}

// grant gives slot s one increment on the plan if it can take one now and
// reports whether it did. Where bad is kept (the one-pass plan) and holds s
// (a link set does), each grant keeps it equal to the union of the sets on
// the links short of the least increment, so one bit refuses s before its
// slot is read: no increment fits on such a link. Where bad decides
// (byBit) that bit and the ceiling are the whole check; anything else walks
// its route (canGrow).
func (m *Manager) grant(s, arrival int32) bool {
	w := &m.work
	w.counts.served++
	if !w.walk && s != arrival && w.bad.Has(s) {
		return false
	}
	sl := &m.slots[s]
	if m.byBit(s, arrival) {
		if sl.level >= sl.ceiling {
			return false
		}
	} else if !m.canGrow(sl) {
		return false
	}
	m.touch(s)
	for _, d := range sl.dirs {
		if w.room[d] -= sl.inc; !w.walk && w.room[d] < m.minInc && w.room[d]+sl.inc >= m.minInc {
			w.bad.Or(m.net.SlotsOn(d)) // d has just run short: bad stays exact
		}
	}
	sl.level++
	return true
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
		spec := &sl.conn.Spec
		if err := m.net.AdjustPrimary(sl.dirs, spec.Bandwidth(sl.held), spec.Bandwidth(sl.level)); err != nil {
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
