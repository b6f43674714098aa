package manager

import (
	"cmp"
	"slices"

	"drqos/internal/channel"
	"drqos/internal/qos"
	"drqos/internal/topology"
)

// connSlot is a live connection's entry in the manager's dense table and the
// one record the event kernels read: walking a link list, they reach a
// connection's slot by index and never its *channel.Conn. The ledger stores
// the slot index with every primary reservation (network.Reservation.Slot);
// the ID→slot map is consulted once, at the door of Terminate and Conn.
type connSlot struct {
	conn *channel.Conn // nil while the slot is on the free list
	// dirs caches conn.Primary.DirLinks(g), the route the ledger's primary
	// operations take; cacheDirs is its only writer and runs wherever
	// Primary is assigned.
	dirs []topology.DirLinkID
	// id, utility, ceiling (the top level) and inc (the bandwidth of one
	// step) copy what never changes of the connection, set by allocSlot.
	id      channel.ConnID
	utility float64
	ceiling int
	inc     qos.Kbps
	// held mirrors conn.Level, the level the ledger holds: allocSlot sets
	// it and setLevel is its only writer after that.
	held int
	// before is held when the running event snapshotted the slot.
	before int
	// level is the filling's scratch: the level it has brought the
	// connection to, not yet in the ledger.
	level int
}

// marks is a per-event bit set over a dense index space (connection slots,
// directed links). Nothing is cleared between events: a cell counts only
// while its upper 24 bits equal the current epoch.
type marks struct {
	epoch uint32 // the running event's tag, low 8 bits zero
	cell  []uint32
}

const markBits = 0xff

// next starts a new event: every cell reads as empty again.
func (k *marks) next() {
	k.epoch += markBits + 1
	if k.epoch == 0 { // wrapped: forget every cell rather than trust a 2^24-event-old tag
		clear(k.cell)
		k.epoch = markBits + 1
	}
}

// has reports whether bit is raised on cell i: one comparison of the cell's
// epoch and that bit.
func (k *marks) has(i int, bit uint32) bool {
	return k.cell[i]&(^uint32(markBits)|bit) == k.epoch|bit
}

// set raises bit on cell i and reports whether it was down.
func (k *marks) set(i int, bit uint32) bool {
	c := k.cell[i]
	if c&^markBits != k.epoch {
		c = k.epoch
	}
	if c&bit != 0 {
		return false
	}
	k.cell[i] = c | bit
	return true
}

// Slot marks.
const (
	// collected: the event has placed the slot in one of its lists —
	// chained, or the terminating connection or a failure's victims (which
	// are never chained).
	collected uint32 = 1 << iota
	// inChain: in chained; chainReport keys on it.
	inChain
	// inSqueezed: in chained[:squeezed].
	inSqueezed
	// isCandidate: collected for a failure's redistribution.
	isCandidate
)

// Link marks.
const (
	// linkListed: in work.links, or on the arriving route (so the walk
	// over off-route links passes it by).
	linkListed uint32 = 1 << iota
	// linkRegion: in work.region.
	linkRegion
)

// workBuffers is the scratch of the event kernels, recycled across events
// in the style of routing.FloodScratch: a Manager is single-threaded and an
// event never re-enters another, so one set suffices. Two rules: every
// slice and mark here is valid until the next event begins and no longer,
// and nothing here escapes — a report that outlives the event (the server
// hands reports out of its loop) owns exact-size copies, never a view.
type workBuffers struct {
	slotMarks marks // indexed by connection slot
	linkMarks marks // indexed by directed link

	// chained is the population the event can move, in discovery order:
	// chained[:squeezed] retreats to its minimum (an arrival's directly
	// chained channels, in the plan only; a failure's channels on the
	// activation links, in the ledger), the rest only grows (indirectly
	// chained, sharers of a released route). It is computed once and serves
	// the snapshot, the squeeze, the filling's candidates and the report.
	chained  []int32
	squeezed int

	route   []topology.DirLinkID // directed links of the route in hand
	links   []topology.DirLinkID // arrival: off-route links; failure: activation links
	region  []topology.DirLinkID // FailLink: where capacity changed
	victims []int32              // FailLink: slots whose primary crosses the link
	lost    []int32              // FailLink: slots whose backup alone crosses it
	cands   []int32              // redistribution candidates
	changes []LevelChange
	grow    growQueue
	options []backupOption // findBackup: candidate backups, best first

	// The plan's view of the links: room[d] is d's growth headroom, valid
	// on the links of the planned candidates' routes.
	room []qos.Kbps
	// headroom[d] is d's admission headroom, loaded for route discovery.
	headroom []float64
}

// newWorkBuffers sizes the per-link scratch for a graph with the given
// number of directed links; the per-slot marks grow with the slot table.
func newWorkBuffers(dirLinks int) workBuffers {
	return workBuffers{
		linkMarks: marks{cell: make([]uint32, dirLinks)},
		room:      make([]qos.Kbps, dirLinks),
		headroom:  make([]float64, dirLinks),
	}
}

// beginEvent invalidates the previous event's marks and empties its lists.
func (m *Manager) beginEvent() {
	w := &m.work
	w.slotMarks.next()
	w.linkMarks.next()
	w.chained, w.squeezed = w.chained[:0], 0
	w.links = w.links[:0]
	w.region = w.region[:0]
	w.victims = w.victims[:0]
	w.lost = w.lost[:0]
	w.cands = w.cands[:0]
}

// allocSlot returns a free slot index for c, growing the table if needed.
func (m *Manager) allocSlot(c *channel.Conn) int32 {
	var s int32
	if n := len(m.free); n > 0 {
		s, m.free = m.free[n-1], m.free[:n-1]
	} else {
		s = int32(len(m.slots))
		m.slots = append(m.slots, connSlot{})
		m.work.slotMarks.cell = append(m.work.slotMarks.cell, 0)
	}
	sl := &m.slots[s]
	sl.conn, sl.id, sl.utility = c, c.ID, c.Spec.Utility
	sl.ceiling, sl.inc = c.Spec.States()-1, c.Spec.Increment
	sl.held = c.Level
	m.cacheDirs(s)
	return s
}

// crosses reports whether the slot's primary traverses physical link l.
func (sl *connSlot) crosses(l topology.LinkID) bool {
	for _, d := range sl.dirs {
		if d.Link() == l {
			return true
		}
	}
	return false
}

// freeSlot returns a dead connection's slot to the free list, keeping the
// dirs backing array for the next tenant.
func (m *Manager) freeSlot(s int32) {
	m.slots[s].conn = nil
	m.free = append(m.free, s)
}

// cacheDirs refreshes slot s's cached directed links from its connection's
// current primary route.
func (m *Manager) cacheDirs(s int32) {
	sl := &m.slots[s]
	sl.dirs = sl.conn.Primary.AppendDirLinks(sl.dirs[:0], m.g)
}

// chain collects into chained the primaries on the given directed links
// that the event has not collected yet, snapshotting each one's level. A
// slot the caller marked collected beforehand (the terminating connection,
// a failure's victims) is thereby left out.
func (m *Manager) chain(dirs []topology.DirLinkID) {
	w := &m.work
	for _, d := range dirs {
		for _, r := range m.net.PrimariesOn(d) {
			if !w.slotMarks.set(int(r.Slot), collected) {
				continue
			}
			w.slotMarks.set(int(r.Slot), inChain)
			w.chained = append(w.chained, r.Slot)
			sl := &m.slots[r.Slot]
			sl.before = sl.held
		}
	}
}

// markSqueezed ends the squeezed prefix of chained at its current length.
func (m *Manager) markSqueezed() {
	w := &m.work
	w.squeezed = len(w.chained)
	for _, s := range w.chained {
		w.slotMarks.set(int(s), inSqueezed)
	}
}

// chainArrival classifies the live connections against a prospective route
// (its directed links in work.route): directly chained channels share ≥1
// directed link with it, i.e. actually contend for the same capacity;
// indirectly chained ones share a directed link with a directly chained
// channel but none with the route itself. chained[:squeezed] is the former.
func (m *Manager) chainArrival() {
	w := &m.work
	for _, d := range w.route {
		w.linkMarks.set(int(d), linkListed)
	}
	m.chain(w.route)
	m.markSqueezed()
	// Directed links of directly chained channels that are off the route.
	for _, s := range w.chained {
		for _, d := range m.slots[s].dirs {
			if w.linkMarks.set(int(d), linkListed) {
				w.links = append(w.links, d)
			}
		}
	}
	m.chain(w.links)
}

// squeezeChained retreats chained[:squeezed] to their minima in the ledger.
func (m *Manager) squeezeChained() error {
	for _, s := range m.work.chained[:m.work.squeezed] {
		if err := m.squeezeToMin(s); err != nil {
			return err
		}
	}
	return nil
}

// chainReport reads the event's report off the chained population in
// ascending ID order. It returns the IDs of chained[:squeezed] and, when
// rest is asked for, of chained[squeezed:], each exact-size and owned by the
// caller; and the chained population's level changes against its snapshot,
// sized for extra more entries (an arrival appends its own) and nil when
// empty.
//
// The order comes from walking order, an ID-sorted list of slots holding
// every chained one, against the slot marks: the alive list, which holds
// them because an event only removes connections it never chains, or an
// arrival's candidates, collected off the alive list. Nothing is sorted.
func (m *Manager) chainReport(order []int32, rest bool, extra int) (squeezed, others []channel.ConnID, changes []LevelChange, err error) {
	w := &m.work
	squeezed = make([]channel.ConnID, 0, w.squeezed)
	if rest {
		others = make([]channel.ConnID, 0, len(w.chained)-w.squeezed)
	}
	w.changes = w.changes[:0]
	found := 0
	for _, s := range order {
		if !w.slotMarks.has(int(s), inChain) {
			continue
		}
		found++
		sl := &m.slots[s]
		switch {
		case w.slotMarks.has(int(s), inSqueezed):
			squeezed = append(squeezed, sl.id)
		case rest:
			others = append(others, sl.id)
		}
		if sl.before != sl.held {
			w.changes = append(w.changes, LevelChange{ID: sl.id, From: sl.before, To: sl.held})
		}
	}
	if found != len(w.chained) {
		return nil, nil, nil, violationf("%d of %d chained connections in ID order", found, len(w.chained))
	}
	if len(w.changes)+extra > 0 {
		changes = append(make([]LevelChange, 0, len(w.changes)+extra), w.changes...)
	}
	return squeezed, others, changes, nil
}

// sortByID orders slots by their connections' IDs.
func (m *Manager) sortByID(slots []int32) {
	slices.SortFunc(slots, func(a, b int32) int { return cmp.Compare(m.slots[a].id, m.slots[b].id) })
}
