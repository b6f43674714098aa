package manager

import (
	"drqos/internal/qos"
	"drqos/internal/topology"
)

// growItem is one growth candidate: its slot and the policy rank of its
// current level.
type growItem struct {
	slot int32
	rank qos.Rank
}

// growHeap is a binary min-heap of growth candidates by policy rank, sifted
// in place over the manager's recycled backing array. Each connection has at
// most one entry, re-ranked whenever it grows; comparing two entries never
// calls the policy.
type growHeap struct {
	items []growItem
}

// init establishes the heap order over arbitrary items.
func (h *growHeap) init() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.sift(i)
	}
}

// sift restores the order below item top, whose rank may have grown, by
// Floyd's bottom-up method: the hole at top descends along the lesser
// children to a leaf, one comparison per level, and the displaced item then
// climbs back to its place. A dropped or re-ranked item usually belongs deep
// down, so this halves the comparisons of a plain sift-down.
func (h *growHeap) sift(top int) {
	items := h.items
	n := len(items)
	x := items[top]
	i := top
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && items[r].rank.Less(items[c].rank) {
			c = r
		}
		items[i] = items[c]
		i = c
	}
	for i > top {
		p := (i - 1) / 2
		if !x.rank.Less(items[p].rank) {
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = x
}

// dropTop removes the first item.
func (h *growHeap) dropTop() {
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	if n > 0 {
		h.sift(0)
	}
}

// An adaptation event plans on scratch and writes the ledger once. plan
// loads the candidates' levels into their slots and starts a fresh view of
// the links' growth headroom (work.room, each link read from the ledger on
// first use); squeezeInPlan and an arrival's reservation adjust that
// picture, fill runs the §3.2 water-filling over it, and commit writes the
// connections whose level changed: decreases first, then increases, so the
// ledger never holds more than capacity in between.
//
// The candidates must cover every primary on a directed link where capacity
// changed (new route, released route, activated backup links); channels with
// no such link were maximal before the event and stay maximal. Their order
// is immaterial: ranks are totally ordered (Order breaks every tie), so
// which candidate is served next does not depend on how the heap was
// filled.

// plan loads cands into the filling's scratch at their ledger levels.
func (m *Manager) plan(cands []int32) {
	m.work.roomRead.next()
	for _, s := range cands {
		sl := &m.slots[s]
		sl.level, sl.ceiling, sl.inc = sl.conn.Level, sl.conn.Spec.States()-1, sl.conn.Spec.Increment
	}
}

// room returns directed link d's growth headroom in the running plan,
// reading it from the ledger on first use.
func (m *Manager) room(d topology.DirLinkID) *qos.Kbps {
	w := &m.work
	if w.roomRead.set(int(d), 1) {
		w.room[d] = m.net.FreeForGrowth(d)
	}
	return &w.room[d]
}

// squeezeInPlan retreats planned slots to their minima on scratch only
// (§3.2: the directly chained channels "release their extra resources"):
// level 0, and the extras they hold in the ledger credited to the headroom
// of their links.
func (m *Manager) squeezeInPlan(slots []int32) {
	for _, s := range slots {
		sl := &m.slots[s]
		c := sl.conn
		if extra := c.Bandwidth() - c.Spec.Min; extra > 0 {
			for _, d := range sl.dirs {
				*m.room(d) += extra
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
	h := growHeap{items: w.heap[:0]}
	for _, s := range cands {
		if sl := &m.slots[s]; m.canGrow(sl) {
			h.items = append(h.items, growItem{slot: s, rank: policy.Rank(sl.key())})
		}
	}
	w.heap = h.items[:0] // keep whatever the appends grew
	h.init()
	for len(h.items) > 0 {
		top := &h.items[0]
		sl := &m.slots[top.slot]
		if !m.canGrow(sl) {
			h.dropTop() // headroom only shrinks: permanently ineligible
			continue
		}
		for _, d := range sl.dirs {
			w.room[d] -= sl.inc
		}
		sl.level++
		top.rank = policy.Rank(sl.key())
		h.sift(0)
	}
}

// commit writes the planned level of every candidate that ends lower
// (grow false) or higher (grow true) than it holds in the ledger.
func (m *Manager) commit(cands []int32, grow bool) error {
	for _, s := range cands {
		sl := &m.slots[s]
		c := sl.conn
		if sl.level == c.Level || (sl.level > c.Level) != grow {
			continue
		}
		if err := m.net.AdjustPrimary(c.ID, c.Primary, c.Spec.Bandwidth(sl.level)); err != nil {
			// The filling counted room on every link and decreases went
			// first; failure is corruption.
			return wrapViolation(err, "commit level %d of conn %d", sl.level, c.ID)
		}
		if err := m.trackLevel(c, c.Level, sl.level); err != nil {
			return err
		}
		c.Level = sl.level
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
	return qos.GrowthCandidate{
		Utility:         sl.conn.Spec.Utility,
		ExtraIncrements: sl.level,
		Order:           int64(sl.conn.ID),
	}
}

// canGrow reports whether the slot's connection, at its scratch level, is
// below its ceiling and every directed link of its primary has room for one
// more increment.
func (m *Manager) canGrow(sl *connSlot) bool {
	if sl.level >= sl.ceiling {
		return false
	}
	for _, d := range sl.dirs {
		if *m.room(d) < sl.inc {
			return false
		}
	}
	return true
}
