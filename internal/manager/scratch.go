package manager

import (
	"math/bits"

	"drqos/internal/channel"
	"drqos/internal/network"
	"drqos/internal/qos"
	"drqos/internal/topology"
)

// connSlot is a live connection's entry in the manager's dense table and the
// one record the event kernels read: from a link's slot set or list, they
// reach a connection's slot by index and never its *channel.Conn. The ledger
// stores the slot index with every primary reservation
// (network.Reservation.Slot); the ID→slot map is consulted once, at the door
// of Terminate and Conn.
//
// Slot order is ID order: allocSlot appends, IDs only grow, and renumber
// keeps the order when it closes the gaps the dead leave. A set of slots
// walked in index order is therefore a set of connections in ascending ID.
type connSlot struct {
	conn *channel.Conn // nil once the connection is dead
	// dirs caches conn.Primary.DirLinks(g), the route the ledger's primary
	// operations take; cacheDirs is its only writer and runs wherever
	// Primary is assigned.
	dirs []topology.DirLinkID
	// utility, ceiling (the top level) and inc (the bandwidth of one step)
	// copy what never changes of the connection, set by allocSlot; its ID
	// is Manager.slotID's.
	utility float64
	ceiling int
	inc     qos.Kbps
	// held mirrors conn.Level, the level the ledger holds: allocSlot sets
	// it and setLevel is its only writer after that.
	held int
	// level is the filling's scratch: the level it has brought the
	// connection to, not yet in the ledger. Between events it equals held.
	level int
	// before is held as it stood when the running event first touched the
	// slot (see touch).
	before int
}

// marks is a per-event bit set over the directed links. Nothing is cleared
// between events: a cell counts only while its upper 24 bits equal the
// current epoch.
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
// slice, set and mark here is valid until the next event begins and no
// longer, and nothing here escapes — a report that outlives the event (the
// server hands reports out of its loop) owns exact-size copies, never a
// view.
//
// The populations are slot sets, unions of the ledger's per-link sets
// (network.SlotsOn): an event names who it can move without visiting them.
type workBuffers struct {
	linkMarks marks // indexed by directed link

	// direct is the population that retreats to its minimum: an arrival's
	// directly chained channels (in the plan only) or a failure's channels
	// on the activation links (in the ledger). chained is the whole
	// population the event can move and report: direct plus the indirectly
	// chained channels, a termination's sharers, or a failure's sharers of
	// the victims' routes.
	direct  network.SlotSet
	chained network.SlotSet
	// touched holds every slot whose level the event has written, on
	// scratch or in the ledger; commit and the report's changes walk it.
	touched network.SlotSet
	// growable is the filling's starting candidates; bad the slots on a
	// link without room for the least increment.
	growable network.SlotSet
	bad      network.SlotSet
	// cands is a failure's redistribution candidates, victims its victims.
	cands   network.SlotSet
	victims network.SlotSet

	// walk reports that the plan took its walking form: walked lists the
	// candidates, the arrival last, and room holds only their links.
	walk   bool
	walked []int32

	route   []topology.DirLinkID // directed links of the route in hand
	links   []topology.DirLinkID // arrival: off-route links; failure: activation links
	region  []topology.DirLinkID // FailLink: where capacity changed
	members []int32              // a set's members, ascending, for the walk in hand
	squeeze []int32              // direct's members, ascending
	dying   []int32              // FailLink: slots whose primary crosses the link
	lost    []int32              // FailLink: slots whose backup alone crosses it
	changes []LevelChange
	grow    growQueue
	rounds  [2][]int32     // fillRounds: the round being served, the next
	options []backupOption // findBackup: candidate backups, best first
	renum   []int32        // renumber: old slot → new

	// The plan's view of the links: room[d] is d's growth headroom, on
	// every link or (walk) on the candidates' links.
	room []qos.Kbps
	// headroom[d] is d's admission headroom, loaded for route discovery.
	headroom []float64

	// counts tallies kernel work across events, for the benchmarks.
	counts kernelCounts
}

// kernelCounts is what the event kernels have done since the manager was
// built: levels the filling served as one round, candidates it served (one
// check each, in a round or popped from the growth queue), of which popped,
// and connection IDs a report list or AppendChained built.
type kernelCounts struct {
	rounds, served, popped, ids int64
}

// newWorkBuffers sizes the per-link scratch for a graph with the given
// number of directed links; the slot sets are sized per event.
func newWorkBuffers(dirLinks int) workBuffers {
	return workBuffers{
		linkMarks: marks{cell: make([]uint32, dirLinks)},
		room:      make([]qos.Kbps, dirLinks),
		headroom:  make([]float64, dirLinks),
	}
}

// beginEvent invalidates the previous event's marks and empties its sets
// and lists, sizing the sets for the slot table plus one arrival.
func (m *Manager) beginEvent() {
	w := &m.work
	w.linkMarks.next()
	n := len(m.slots) + 1
	for _, s := range []*network.SlotSet{&w.direct, &w.chained, &w.touched, &w.cands, &w.victims} {
		s.Reset(n)
	}
	w.links = w.links[:0]
	w.region = w.region[:0]
	w.squeeze = w.squeeze[:0]
	w.dying = w.dying[:0]
	w.lost = w.lost[:0]
}

// allocSlot appends a slot for c to the table, reusing the dirs array a
// dead tenant left past the table's end.
func (m *Manager) allocSlot(c *channel.Conn) int32 {
	s := int32(len(m.slots))
	if len(m.slots) < cap(m.slots) {
		m.slots = m.slots[:s+1]
	} else {
		m.slots = append(m.slots, connSlot{})
	}
	m.slotID = append(m.slotID, c.ID)
	sl := &m.slots[s]
	sl.conn, sl.utility = c, c.Spec.Utility
	sl.ceiling, sl.inc = c.Spec.States()-1, c.Spec.Increment
	sl.held, sl.level = c.Level, c.Level
	m.boundInc(sl)
	m.cacheDirs(s)
	return s
}

// boundInc lowers minInc to sl's increment if sl has more than one level
// and a smaller increment than any seen.
func (m *Manager) boundInc(sl *connSlot) {
	if sl.ceiling > 0 && (m.minInc == 0 || sl.inc < m.minInc) {
		m.minInc = sl.inc
	}
}

// renumber closes the gaps dead connections left in the slot table once
// they fill half of it: the live slots move down in order, so slot order
// stays ID order, and every slot the ledger, the ID index, the alive list
// and the ceiling set record is rewritten. The dead slots end up past the
// table's end with their dirs arrays, for allocSlot.
func (m *Manager) renumber() {
	if dead := len(m.slots) - len(m.alive); dead == 0 || 2*dead < len(m.slots) {
		return
	}
	w := &m.work
	w.renum = w.renum[:0]
	m.full = m.full[:0]
	m.minInc = 0
	n := int32(0)
	for j := range m.slots {
		if m.slots[j].conn == nil {
			w.renum = append(w.renum, -1)
			continue
		}
		w.renum = append(w.renum, n)
		m.slots[n], m.slots[j] = m.slots[j], m.slots[n]
		m.slotID[n] = m.slotID[j]
		sl := &m.slots[n]
		m.conns[m.slotID[n]] = n
		m.alive[n] = n
		if sl.held == sl.ceiling {
			m.full.Add(n)
		}
		m.boundInc(sl)
		n++
	}
	m.slots, m.slotID = m.slots[:n], m.slotID[:n]
	m.net.RenumberSlots(w.renum)
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

// cacheDirs refreshes slot s's cached directed links from its connection's
// current primary route.
func (m *Manager) cacheDirs(s int32) {
	sl := &m.slots[s]
	sl.dirs = sl.conn.Primary.AppendDirLinks(sl.dirs[:0], m.g)
}

// union sets dst to the union of the ledger's slot sets on dirs.
func (m *Manager) union(dst network.SlotSet, dirs []topology.DirLinkID) {
	clear(dst)
	for _, d := range dirs {
		dst.Or(m.net.SlotsOn(d))
	}
}

// touch records that the running event is about to write slot s's level,
// remembering the level it held before the event for the report.
func (m *Manager) touch(s int32) {
	if !m.work.touched.Has(s) {
		m.work.touched.Add(s)
		m.slots[s].before = m.slots[s].held
	}
}

// chainArrival classifies the live connections against a prospective route
// (its directed links in work.route): directly chained channels share ≥1
// directed link with it, i.e. actually contend for the same capacity;
// indirectly chained ones share a directed link with a directly chained
// channel but none with the route itself. direct is the former, chained
// both; the arrival holds no reservation yet, so it is in neither.
func (m *Manager) chainArrival() {
	w := &m.work
	m.union(w.direct, w.route)
	w.squeeze = w.direct.AppendMembers(w.squeeze[:0])
	for _, d := range w.route {
		w.linkMarks.set(int(d), linkListed)
	}
	for _, s := range w.squeeze {
		for _, d := range m.slots[s].dirs {
			if w.linkMarks.set(int(d), linkListed) {
				w.links = append(w.links, d)
			}
		}
	}
	m.union(w.chained, w.links)
	w.chained.Or(w.direct)
}

// ids lists the IDs of set's members, ascending, in an exact-size slice of
// the caller's.
func (m *Manager) ids(set network.SlotSet) []channel.ConnID {
	return m.appendIDs(make([]channel.ConnID, 0, set.Count()), set, nil)
}

// appendIDs appends the IDs of set's members outside except (nil, or as
// long as set), ascending, to dst.
func (m *Manager) appendIDs(dst []channel.ConnID, set, except network.SlotSet) []channel.ConnID {
	n := len(dst)
	for i, x := range set {
		if except != nil {
			x &^= except[i]
		}
		for ; x != 0; x &= x - 1 {
			dst = append(dst, m.slotID[i<<6|bits.TrailingZeros64(x)])
		}
	}
	m.work.counts.ids += int64(len(dst) - n)
	return dst
}

// AppendChained appends to dst, ascending, the IDs of the channels the last
// event chained, and returns it: with indirect false the directly chained
// ones — an arrival's, whose primary shares a link with the new route, or a
// termination's Affected, which shared one with the route that left — and
// with indirect true an arrival's indirectly chained ones (a termination has
// none). After a link failure they are its Squeezed channels and the other
// sharers of the victims' routes. It reads the event's own sets, so it
// answers for the event just applied, until the next one begins.
func (m *Manager) AppendChained(dst []channel.ConnID, indirect bool) []channel.ConnID {
	w := &m.work
	if indirect {
		return m.appendIDs(dst, w.chained, w.direct)
	}
	return m.appendIDs(dst, w.direct, nil)
}

// chainChanges lists the level changes of the chained population against
// the levels it held before the event, ascending by ID, sized for extra
// more entries (an arrival appends its own) and nil when empty. Only a
// touched slot can have moved.
func (m *Manager) chainChanges(extra int) []LevelChange {
	w := &m.work
	w.changes = w.changes[:0]
	w.members = w.touched.AppendMembers(w.members[:0])
	for _, s := range w.members {
		if sl := &m.slots[s]; w.chained.Has(s) && sl.before != sl.held {
			w.changes = append(w.changes, LevelChange{ID: m.slotID[s], From: sl.before, To: sl.held})
		}
	}
	if len(w.changes)+extra == 0 {
		return nil
	}
	return append(make([]LevelChange, 0, len(w.changes)+extra), w.changes...)
}
