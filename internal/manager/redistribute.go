package manager

import "drqos/internal/qos"

// growItem is one growth candidate: its slot and the policy key of its
// current level.
type growItem struct {
	slot int32
	key  qos.GrowthCandidate
}

// growHeap is a binary min-heap of growth candidates under the configured
// policy, sifted in place over the manager's recycled backing array. Each
// connection has at most one entry, re-keyed whenever it grows.
type growHeap struct {
	policy qos.Policy
	items  []growItem
}

func (h *growHeap) less(i, j int) bool { return h.policy.Less(h.items[i].key, h.items[j].key) }

// init establishes the heap order over arbitrary items.
func (h *growHeap) init() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts item i towards the leaves until neither child precedes it.
func (h *growHeap) down(i int) {
	n := len(h.items)
	for {
		least := 2*i + 1
		if least >= n {
			return
		}
		if r := least + 1; r < n && h.less(r, least) {
			least = r
		}
		if !h.less(least, i) {
			return
		}
		h.items[i], h.items[least] = h.items[least], h.items[i]
		i = least
	}
}

// dropTop removes the first item.
func (h *growHeap) dropTop() {
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	h.down(0)
}

// redistribute performs the incremental, utility-weighted water-filling of
// §3.2 over the given candidate slots: while any of them can grow by one
// increment on every link of its route, the configured policy picks the
// next recipient.
//
// The candidates must cover every primary on a directed link where capacity
// changed (new route, released route, activated backup links); channels with
// no such link were maximal before the event and stay maximal. Their order
// is immaterial: policy keys are totally ordered (Order breaks every tie),
// so which candidate is served next does not depend on how the heap was
// filled.
//
// The filling runs on scratch — each candidate's level in its slot, each
// touched link's headroom in work.room, read from the ledger once — and the
// ledger is written once per connection that ended higher, not once per
// increment: only growth is committed and the total was counted against the
// same headroom, so every prefix of the commits fits.
//
// Correctness of the lazy pruning: capacity only DECREASES while increments
// are granted, so a channel observed unable to grow is dropped for good.
func (m *Manager) redistribute(cands []int32) error {
	w := &m.work
	h := growHeap{policy: m.cfg.Policy, items: w.heap[:0]}
	w.roomRead.next()
	for _, s := range cands {
		sl := &m.slots[s]
		sl.level, sl.ceiling = sl.conn.Level, sl.conn.Spec.States()-1
		for _, d := range sl.dirs {
			if w.roomRead.set(int(d), 1) {
				w.room[d] = m.net.FreeForGrowth(d)
			}
		}
		if m.canGrow(sl) {
			h.items = append(h.items, growItem{slot: s, key: sl.key()})
		}
	}
	w.heap = h.items[:0] // keep whatever the appends grew
	h.init()
	for len(h.items) > 0 {
		top := &h.items[0]
		sl := &m.slots[top.slot]
		if !m.canGrow(sl) {
			h.dropTop() // capacity only shrinks: permanently ineligible
			continue
		}
		for _, d := range sl.dirs {
			w.room[d] -= sl.conn.Spec.Increment
		}
		sl.level++
		top.key = sl.key()
		h.down(0)
	}
	for _, s := range cands {
		sl := &m.slots[s]
		c := sl.conn
		if sl.level == c.Level {
			continue
		}
		if err := m.net.AdjustPrimary(c.ID, c.Primary, c.Spec.Bandwidth(sl.level)); err != nil {
			// The filling counted room on every link; failure is corruption.
			return wrapViolation(err, "redistribute grow conn %d", c.ID)
		}
		if err := m.trackLevel(c, c.Level, sl.level); err != nil {
			return err
		}
		c.Level = sl.level
	}
	return nil
}

// key is the policy key of the slot's connection at its scratch level.
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
		if m.work.room[d] < sl.conn.Spec.Increment {
			return false
		}
	}
	return true
}
