// Package manager implements the paper's network manager for DR-connections
// with elastic QoS (§3.1): bounded-flooding route discovery, primary and
// link-disjoint backup establishment with backup multiplexing, minimum-level
// admission, and the run-time bandwidth adaptation rules — squeeze directly
// chained channels on arrival, redistribute extras by utility, grow channels
// on termination, and activate backups on link failure.
//
// Every public operation returns a report describing which channels changed
// bandwidth level and why; the simulator's parameter estimator consumes
// these reports to measure Pf, Ps and the A/B/T transition matrices (§3.3).
package manager

import (
	"errors"
	"fmt"
	"slices"

	"drqos/internal/channel"
	"drqos/internal/network"
	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// ErrRejected reports that a DR-connection request was not admitted.
var ErrRejected = errors.New("manager: connection rejected")

// errNoProtection marks connections deliberately left without a backup
// (reactive-recovery mode).
var errNoProtection = errors.New("manager: protection disabled")

// Config parameterizes a Manager.
type Config struct {
	// Capacity is the uniform link bandwidth (the paper uses 10 Mb/s).
	Capacity qos.Kbps
	// HopBound bounds the flooding region (§3.1). Zero selects a default
	// of 2×diameter-ish 16 hops.
	HopBound int
	// MaxCandidates caps routes collected per request (0 = unlimited).
	MaxCandidates int
	// Policy distributes extra increments; nil selects the coefficient
	// (utility-proportional) scheme the paper's experiments use.
	Policy qos.Policy
	// RequireBackup rejects connections for which no backup channel can be
	// established (the dependability QoS is a hard, single-value
	// requirement in the paper, §2.2).
	RequireBackup bool
	// DisableBackupMultiplexing makes every backup reserve its own spare
	// instead of sharing it under the single-failure rule (the §2.1.2
	// "overbooking" ablation).
	DisableBackupMultiplexing bool
	// RouteSelection picks the §2.1.1 route-discovery strategy; the
	// default is the paper's bounded flooding.
	RouteSelection RouteSelection
	// ReactiveRecovery disables backup channels entirely and instead
	// attempts to re-establish a failed connection's primary from scratch
	// when a link fails — the restoration approach the paper's §2.1.2
	// argues against ("such channel re-establishment attempts can fail
	// because of resource shortage"). Implies no backups are reserved.
	ReactiveRecovery bool
}

// RouteSelection enumerates the §2.1.1 route-discovery strategies.
type RouteSelection int

// Route-discovery strategies: parallel bounded flooding (the paper's
// scheme) and the sequential baseline that checks shortest routes one by
// one "until a qualified one is found".
const (
	RouteFlood RouteSelection = iota
	RouteSequential
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.HopBound <= 0 {
		out.HopBound = 16
	}
	if out.Policy == nil {
		out.Policy = qos.CoefficientPolicy{}
	}
	return out
}

// LevelChange records one channel's bandwidth-state jump during an event.
type LevelChange struct {
	ID   channel.ConnID
	From int
	To   int
}

// ArrivalReport describes the outcome of an Establish call.
type ArrivalReport struct {
	// Conn is the established connection (nil when rejected).
	Conn *channel.Conn
	// DirectlyChained counts pre-existing channels sharing ≥1 link with
	// the new primary (the Pf population).
	DirectlyChained int
	// IndirectlyChained counts channels link-disjoint from the new primary
	// but sharing a link with a directly-chained channel (the Ps
	// population). Manager.AppendChained lists both populations.
	IndirectlyChained int
	// Changes lists every level change caused by the arrival, including
	// the new connection's own growth from its minimum.
	Changes []LevelChange
}

// TerminationReport describes the outcome of a Terminate call.
type TerminationReport struct {
	// Affected counts the channels that shared ≥1 link with the
	// terminated connection's primary; Manager.AppendChained lists them.
	Affected int
	// Changes lists the resulting level changes.
	Changes []LevelChange
}

// FailureReport describes the outcome of a FailLink call.
type FailureReport struct {
	// Activated lists connections that switched to their backups.
	Activated []channel.ConnID
	// Dropped lists connections that lost service.
	Dropped []channel.ConnID
	// Recovered lists connections re-established reactively after losing
	// their primary (ReactiveRecovery mode only).
	Recovered []channel.ConnID
	// BackupsLost lists connections whose backup (not primary) crossed the
	// failed link and was released.
	BackupsLost []channel.ConnID
	// Squeezed lists pre-existing channels that shared links with the
	// activated backups (the paper's retreat population).
	Squeezed []channel.ConnID
	// Changes lists the resulting level changes of surviving channels.
	Changes []LevelChange
}

// Manager owns the network ledger and every DR-connection.
type Manager struct {
	cfg Config
	g   *topology.Graph
	net *network.Network

	// Every live connection holds one slot of the dense table, numbered in
	// ID order; conns maps an ID to its slot (see connSlot).
	conns  map[channel.ConnID]int32
	slots  []connSlot
	nextID channel.ConnID
	// slotID[s] is the ID of slot s's connection, apart from the slot so
	// that a report's ID lists read off one dense array.
	slotID []channel.ConnID
	// full holds the live slots whose level is their ceiling; minInc is at
	// most the increment of every live slot that has more than one level.
	// The filling's starting filter reads both.
	full   network.SlotSet
	minInc qos.Kbps

	// Aggregates maintained incrementally so the simulator's per-event
	// sampling is O(1) instead of O(connections).
	alive       []int32  // slots of the alive connections, ascending (so by ID)
	bwSum       qos.Kbps // Σ Bandwidth() over alive connections
	levelHist   []int    // alive connections per level index
	unprotected int      // alive connections without a backup

	// Counters for acceptance statistics.
	requests int64
	rejects  int64

	// Reusable working state for the hot per-event kernels. A Manager is
	// single-threaded (the server wraps it in an actor loop), so one set of
	// buffers per Manager suffices.
	flood routing.FloodScratch
	route routing.RouteScratch
	work  workBuffers
}

// New builds a Manager over graph g.
func New(g *topology.Graph, cfg Config) (*Manager, error) {
	c := cfg.withDefaults()
	if c.Capacity <= 0 {
		return nil, fmt.Errorf("manager: non-positive capacity %v", c.Capacity)
	}
	net, err := network.New(g, c.Capacity)
	if err != nil {
		return nil, err
	}
	if c.DisableBackupMultiplexing {
		if err := net.SetMultiplexing(false); err != nil {
			return nil, err
		}
	}
	return &Manager{
		cfg:    c,
		g:      g,
		net:    net,
		conns:  make(map[channel.ConnID]int32),
		nextID: 1,
		work:   newWorkBuffers(g.NumDirLinks()),
	}, nil
}

// linkUp is the backup searches' link filter: the link is not failed.
func (m *Manager) linkUp(l topology.LinkID) bool { return !m.net.Failed(l) }

// trackAdd registers the newly alive connection in slot s in the ID index
// and the aggregates. s is the table's last slot, so appending keeps the
// alive list sorted.
func (m *Manager) trackAdd(s int32) error {
	sl := &m.slots[s]
	c := sl.conn
	m.conns[c.ID] = s
	m.alive = append(m.alive, s)
	if sl.held == sl.ceiling {
		m.full.Add(s)
	}
	m.bwSum += c.Bandwidth()
	if err := m.bumpHist(c.Level, +1); err != nil {
		return err
	}
	if !c.HasBackup {
		m.unprotected++
	}
	return nil
}

// trackRemove deregisters the dying connection in slot s (terminated or
// dropped); the slot stays dead until renumber closes the gap.
func (m *Manager) trackRemove(s int32) error {
	c := m.slots[s].conn
	i, ok := slices.BinarySearch(m.alive, s)
	if !ok {
		return violationf("conn %d missing from alive list", c.ID)
	}
	m.alive = slices.Delete(m.alive, i, i+1)
	delete(m.conns, c.ID)
	m.slots[s].conn = nil
	m.full.Remove(s)
	m.bwSum -= c.Bandwidth()
	if err := m.bumpHist(c.Level, -1); err != nil {
		return err
	}
	if !c.HasBackup {
		m.unprotected--
		if m.unprotected < 0 {
			return violationf("negative unprotected count")
		}
	}
	return nil
}

// setLevel moves the connection in slot s to level to in the aggregates, the
// slot's mirror (and its scratch), the ceiling set and the connection
// itself; it is the only writer of a live connection's level. The ledger is
// the caller's: it adjusts the grants before or after, as its event
// requires.
func (m *Manager) setLevel(s int32, to int) error {
	sl := &m.slots[s]
	if from := sl.held; from != to {
		spec := &sl.conn.Spec
		m.bwSum += spec.Bandwidth(to) - spec.Bandwidth(from)
		if err := m.bumpHist(from, -1); err != nil {
			return err
		}
		if err := m.bumpHist(to, +1); err != nil {
			return err
		}
	}
	sl.held, sl.level = to, to
	sl.conn.Level = to
	if to == sl.ceiling {
		m.full.Add(s)
	} else {
		m.full.Remove(s)
	}
	return nil
}

func (m *Manager) bumpHist(level, delta int) error {
	for len(m.levelHist) <= level {
		m.levelHist = append(m.levelHist, 0)
	}
	m.levelHist[level] += delta
	if m.levelHist[level] < 0 {
		return violationf("negative level histogram at %d", level)
	}
	return nil
}

// LevelHistogram copies the per-level alive-connection counts into dst
// (grown as needed) and returns it.
func (m *Manager) LevelHistogram(dst []int) []int {
	dst = dst[:0]
	dst = append(dst, m.levelHist...)
	return dst
}

// AliveIDAt returns the i-th alive connection ID in ascending order.
func (m *Manager) AliveIDAt(i int) channel.ConnID { return m.slots[m.alive[i]].conn.ID }

// UnprotectedCount returns the number of alive connections without a
// backup channel, maintained in O(1).
func (m *Manager) UnprotectedCount() int { return m.unprotected }

// Network exposes the resource ledger (read-mostly; used by tests and
// metrics).
func (m *Manager) Network() *network.Network { return m.net }

// Graph returns the topology.
func (m *Manager) Graph() *topology.Graph { return m.g }

// Conn returns the connection with the given ID, or nil.
func (m *Manager) Conn(id channel.ConnID) *channel.Conn {
	if s, ok := m.conns[id]; ok {
		return m.slots[s].conn
	}
	return nil
}

// AliveIDs returns a copy of the alive connection IDs in ascending order.
func (m *Manager) AliveIDs() []channel.ConnID {
	out := make([]channel.ConnID, len(m.alive))
	for i, s := range m.alive {
		out[i] = m.slots[s].conn.ID
	}
	return out
}

// AliveCount returns the number of alive connections.
func (m *Manager) AliveCount() int { return len(m.alive) }

// AverageBandwidth returns the mean reserved bandwidth over alive primaries
// in Kb/s (the paper's headline metric), or 0 with no connections.
func (m *Manager) AverageBandwidth() float64 {
	if len(m.alive) == 0 {
		return 0
	}
	return float64(m.bwSum) / float64(len(m.alive))
}

// Establish admits a new DR-connection from src to dst with the given
// elastic spec, following §3.1: flood for candidate routes, reserve the
// primary at its minimum (squeezing directly chained channels to their
// minima), establish a (maximally) link-disjoint multiplexed backup, then
// redistribute extras by utility.
func (m *Manager) Establish(src, dst topology.NodeID, spec qos.ElasticSpec) (rep *ArrivalReport, err error) {
	defer tagViolation(&err, "establish")
	m.requests++
	if err := spec.Validate(); err != nil {
		m.rejects++
		return nil, err
	}
	if src == dst {
		m.rejects++
		return nil, fmt.Errorf("%w: src == dst (%d)", ErrRejected, src)
	}

	cands, err := m.discoverRoutes(src, dst, spec)
	if err != nil {
		m.rejects++
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	// The flood's routes are its scratch's: the connection keeps a copy.
	return m.admit(channel.New(m.nextID, src, dst, spec, cands[0].Path.Clone()), cands, true)
}

// admit is the arrival kernel behind Establish and EstablishFixed, for a
// connection already validated and routed: chain → plan → commit decreases →
// reserve → (backup) → track → commit increases → report. wantBackup
// selects the protected class: a backup is sought among cands (unless the
// manager runs reactive recovery) and Config.RequireBackup is enforced; a
// fixed connection asks for neither.
//
// The §3.2 squeeze ("all the existing primary channels that share at least
// one link with the new channel should release their extra resources") and
// the water-filling after it happen on scratch, with the arrival planned at
// its minimum; the ledger sees only each connection's net change. That is
// the same outcome as squeezing in the ledger first: on a route link every
// primary is directly chained, so once the decreases are in, the link's
// grants are at most the plan's — which left room for the arrival's minimum
// wherever the admission test passes — and ReservePrimary decides exactly as
// it would after a full squeeze; backup admission reads minima and spare,
// never grants; and the filling reads only grants.
func (m *Manager) admit(conn *channel.Conn, cands []routing.Candidate, wantBackup bool) (*ArrivalReport, error) {
	w := &m.work
	id, primary, spec := conn.ID, conn.Primary, conn.Spec
	m.renumber()
	m.beginEvent()
	w.route = primary.AppendDirLinks(w.route[:0], m.g)

	// Identify the chained populations BEFORE mutating anything; the
	// filling's candidates are those plus the arrival.
	m.chainArrival()
	slot := m.allocSlot(conn)
	m.plan(w.chained, slot)
	m.squeezeInPlan(w.squeeze)
	for _, d := range w.route {
		w.room[d] -= spec.Min
	}
	m.fill(w.chained, w.squeeze, slot)

	if err := m.commit(false); err != nil {
		return nil, err
	}
	if err := m.net.ReservePrimary(id, slot, w.route, spec.Min); err != nil {
		// The plan squeezed every elastic byte off the route; a capacity
		// error means the route genuinely cannot host the minimum.
		return nil, m.refuse(slot, fmt.Errorf("%w: %v", ErrRejected, err))
	}

	if wantBackup {
		// Backup selection: prefer a flooding candidate (these arrived as
		// real request copies), fall back to an explicit disjoint search.
		// Reactive recovery forgoes protection entirely (the restoration
		// baseline).
		var backup routing.Path
		var shared int
		berr := errNoProtection
		if !m.cfg.ReactiveRecovery {
			backup, shared, berr = m.findBackup(conn, cands)
		}
		if berr == nil {
			if err := m.net.ReserveBackup(id, slot, backup, primary.Links, spec.Min); err == nil {
				if err := conn.AttachBackup(backup, shared); err != nil {
					return nil, wrapViolation(err, "attach backup for conn %d", id)
				}
			} else {
				berr = err
			}
		}
		if berr != nil && m.cfg.RequireBackup {
			if err := m.net.ReleasePrimary(id, w.route); err != nil {
				return nil, wrapViolation(err, "rollback primary of conn %d", id)
			}
			return nil, m.refuse(slot, fmt.Errorf("%w: no backup channel: %v", ErrRejected, berr))
		}
	}

	m.nextID++
	if err := m.trackAdd(slot); err != nil {
		return nil, err
	}
	if err := m.commit(true); err != nil {
		return nil, err
	}
	// The new connection's own growth from its minimum is part of the event
	// (it held no level before); its ID is the largest, so it comes last.
	direct := w.direct.Count()
	return &ArrivalReport{
		Conn:              conn,
		DirectlyChained:   direct,
		IndirectlyChained: w.chained.Count() - direct,
		Changes:           append(m.chainChanges(1), LevelChange{ID: id, From: 0, To: conn.Level}),
	}, nil
}

// discoverRoutes finds candidate routes that can admit a new connection at
// its minimum level, using the configured §2.1.1 strategy. The first
// candidate becomes the primary route.
func (m *Manager) discoverRoutes(src, dst topology.NodeID, spec qos.ElasticSpec) ([]routing.Candidate, error) {
	switch m.cfg.RouteSelection {
	case RouteFlood:
		// Parallel search: the per-link allowance is the minimum-level
		// admission headroom, so flooding only explores routes that could
		// actually admit the connection.
		m.net.LoadAdmissionHeadroom(m.work.headroom)
		return m.flood.Flood(m.g, src, dst, m.work.headroom, routing.FloodConfig{
			HopBound:      m.cfg.HopBound,
			MinBandwidth:  float64(spec.Min),
			MaxCandidates: m.cfg.MaxCandidates,
		})
	case RouteSequential:
		// Sequential search: shortest routes are checked one by one until
		// a qualified one is found (§2.1.1). Admission tests run against
		// the ledger; routes that cannot host the minimum are skipped.
		k := m.cfg.MaxCandidates
		if k <= 0 {
			k = 8
		}
		filter := func(l topology.LinkID) bool { return !m.net.Failed(l) }
		paths, err := routing.KShortest(m.g, src, dst, k, filter)
		if err != nil {
			return nil, err
		}
		var cands []routing.Candidate
		for _, p := range paths {
			if p.Hops() > m.cfg.HopBound {
				continue
			}
			if !m.net.CanAdmitPrimary(p, spec.Min) {
				continue
			}
			// The allowance is the route's bottleneck admission headroom.
			alw := 1e300
			for _, d := range p.DirLinks(m.g) {
				if h := float64(m.net.AdmissionHeadroom(d)); h < alw {
					alw = h
				}
			}
			cands = append(cands, routing.Candidate{Path: p, Allowance: alw})
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("%w: no admissible route among %d shortest", routing.ErrNoRoute, len(paths))
		}
		return cands, nil
	default:
		return nil, fmt.Errorf("manager: unknown route selection %d", m.cfg.RouteSelection)
	}
}

// backupOption is one flooding candidate findBackup may use as a backup.
type backupOption struct {
	path   routing.Path
	shared int // links in common with the primary
}

// before reports whether o is tried before p: fewer shared links, then
// fewer hops.
func (o backupOption) before(p backupOption) bool {
	if o.shared != p.shared {
		return o.shared < p.shared
	}
	return o.path.Hops() < p.path.Hops()
}

// findBackup picks a backup route for conn: the most link-disjoint flooding
// candidate that passes multiplexed admission, else a dedicated search. The
// route it returns is the caller's own.
func (m *Manager) findBackup(conn *channel.Conn, cands []routing.Candidate) (routing.Path, int, error) {
	primary := conn.Primary
	// Try flooding candidates by (shared links, hops), ties in discovery
	// order: each is inserted after every option it does not beat.
	w := &m.work
	w.options = w.options[:0]
	for _, c := range cands {
		if c.Path.Equal(primary) {
			continue
		}
		o := backupOption{path: c.Path, shared: c.Path.SharedLinks(primary)}
		if o.shared == len(primary.Links) {
			continue // covers the whole primary: zero protection value
		}
		at := len(w.options)
		for at > 0 && o.before(w.options[at-1]) {
			at--
		}
		w.options = slices.Insert(w.options, at, o)
	}
	for _, o := range w.options {
		if m.net.CanAdmitBackup(o.path, primary.Links, conn.Spec.Min) {
			return o.path.Clone(), o.shared, nil
		}
	}
	// Dedicated disjoint search over links that could host the backup.
	p, shared, err := m.route.BackupRoute(m.g, primary, m.linkUp)
	if err != nil {
		return routing.Path{}, 0, err
	}
	if !m.net.CanAdmitBackup(p, primary.Links, conn.Spec.Min) {
		return routing.Path{}, 0, fmt.Errorf("%w: backup admission failed", network.ErrCapacity)
	}
	return p, shared, nil
}

// refuse turns away the arrival in slot s, which holds no reservation any
// more: the squeeze is undone — with the arrival gone, the chained
// population is exactly what holds a link whose capacity moved, and it is
// re-planned from its squeezed state as if the arrival had never been
// planned in — and the slot, the table's last, is given back. It returns
// rejection, or the violation that re-growing ran into.
func (m *Manager) refuse(s int32, rejection error) error {
	w := &m.work
	if err := m.redistribute(w.chained, w.squeeze); err != nil {
		return err
	}
	m.slots[s].conn = nil
	m.slots, m.slotID = m.slots[:s], m.slotID[:s]
	m.rejects++
	return rejection
}

// squeezeToMin retreats the connection in slot s to its minimum level.
func (m *Manager) squeezeToMin(s int32) error {
	sl := &m.slots[s]
	if sl.held == 0 {
		return nil
	}
	m.touch(s)
	if err := m.net.AdjustPrimary(m.slotID[s], sl.dirs, sl.conn.Spec.Min); err != nil {
		// Shrinking to the registered minimum can never fail; a failure
		// here means ledger corruption.
		return wrapViolation(err, "squeeze of conn %d failed", m.slotID[s])
	}
	return m.setLevel(s, 0)
}

// CheckInvariants verifies the ledger and the manager-level consistency
// rules: the slot table, the ID index and the alive list describe the same
// connections, slot order is ID order, and each slot mirrors its
// connection's level (its scratch level at rest with it) and primary route;
// the ceiling set and the least increment agree with the slots; every alive
// connection is entered on exactly its routes' directed links — under its
// own slot, at its level's bandwidth — and
// nobody else is entered anywhere (so the dead hold no reservation); and the
// aggregates equal their first-principles recomputation. A failure is
// reported as an *InvariantViolation with Op "audit", so the server's
// degraded-mode detection treats discovered corruption exactly like
// corruption surfaced mid-event.
func (m *Manager) CheckInvariants() (err error) {
	defer tagViolation(&err, "audit")
	if err := m.net.CheckInvariants(); err != nil {
		return wrapViolation(err, "network ledger audit")
	}
	if len(m.alive) != len(m.conns) || len(m.slotID) != len(m.slots) {
		return violationf("%d alive connections, ID index has %d; %d slots, %d slot IDs",
			len(m.alive), len(m.conns), len(m.slots), len(m.slotID))
	}
	var bwSum qos.Kbps
	var unprotected, primaryHops, backupHops, atCeiling int
	hist := make([]int, len(m.levelHist))
	var prev channel.ConnID
	for i, s := range m.alive {
		if s < 0 || int(s) >= len(m.slots) || i > 0 && m.alive[i-1] >= s {
			return violationf("alive list entry %d: slot %d out of order or beyond the table", i, s)
		}
		sl := &m.slots[s]
		c := sl.conn
		if c == nil || !c.Alive() {
			return violationf("alive list entry %d: slot %d holds no alive connection", i, s)
		}
		id := c.ID
		if i > 0 && prev >= id {
			return violationf("alive list not sorted at %d", i)
		}
		prev = id
		if got, ok := m.conns[id]; !ok || got != s {
			return violationf("conn %d sits in slot %d, ID index says %d (present %v)", id, s, got, ok)
		}
		if m.slotID[s] != id {
			return violationf("conn %d sits in slot %d, which records ID %d", id, s, m.slotID[s])
		}
		if c.Level < 0 || c.Level >= c.Spec.States() {
			return violationf("conn %d level %d outside [0,%d)", id, c.Level, c.Spec.States())
		}
		if sl.held != c.Level {
			return violationf("conn %d slot level mirror %d, connection level %d", id, sl.held, c.Level)
		}
		if sl.level != sl.held {
			return violationf("conn %d scratch level %d at rest, holds %d", id, sl.level, sl.held)
		}
		if m.full.Has(s) != (sl.held == sl.ceiling) {
			return violationf("conn %d at level %d of ceiling %d, ceiling set says %v", id, sl.held, sl.ceiling, m.full.Has(s))
		}
		if sl.held == sl.ceiling {
			atCeiling++
		}
		if sl.ceiling > 0 && sl.inc < m.minInc {
			return violationf("conn %d increment %v below the least increment %v", id, sl.inc, m.minInc)
		}
		if !slices.Equal(sl.dirs, c.Primary.DirLinks(m.g)) {
			return violationf("conn %d cached directed links %v, primary route has %v", id, sl.dirs, c.Primary.DirLinks(m.g))
		}
		want := c.Bandwidth()
		for _, d := range sl.dirs {
			list := m.net.PrimariesOn(d)
			at := slices.IndexFunc(list, func(r network.Reservation) bool { return r.ID == id })
			if at < 0 {
				return violationf("conn %d not entered on directed link %d of its primary", id, d)
			}
			if list[at].Slot != s {
				return violationf("conn %d entered on directed link %d under slot %d, sits in %d", id, d, list[at].Slot, s)
			}
			if list[at].Grant != want {
				return violationf("conn %d grant on directed link %d is %v, level says %v", id, d, list[at].Grant, want)
			}
		}
		primaryHops += len(sl.dirs)
		if c.HasBackup {
			for _, d := range c.Backup.DirLinks(m.g) {
				list := m.net.BackupsOn(d)
				at := slices.IndexFunc(list, func(b network.Backup) bool { return b.ID == id })
				if at < 0 {
					return violationf("conn %d backup not entered on directed link %d of its route", id, d)
				}
				if list[at].Slot != s {
					return violationf("conn %d backup entered on directed link %d under slot %d, sits in %d", id, d, list[at].Slot, s)
				}
			}
			backupHops += c.Backup.Hops()
		} else {
			unprotected++
		}
		bwSum += want
		if c.Level >= len(hist) {
			return violationf("level %d beyond histogram", c.Level)
		}
		hist[c.Level]++
	}
	// Every connection is on its own links; equal totals leave no entry
	// over for anyone else (a dead connection, a link off the route).
	var primaries, backups int
	for d := 0; d < m.g.NumDirLinks(); d++ {
		primaries += len(m.net.PrimariesOn(topology.DirLinkID(d)))
		backups += len(m.net.BackupsOn(topology.DirLinkID(d)))
	}
	if primaries != primaryHops {
		return violationf("ledger holds %d primary entries, alive routes have %d hops", primaries, primaryHops)
	}
	if backups != backupHops {
		return violationf("ledger holds %d backup entries, alive backup routes have %d hops", backups, backupHops)
	}
	for s := range m.slots {
		if c := m.slots[s].conn; c != nil {
			if got, ok := m.conns[c.ID]; ok && got == int32(s) {
				continue
			}
			return violationf("dead slot %d holds conn %d", s, c.ID)
		}
	}
	if n := m.full.Count(); n != atCeiling {
		return violationf("ceiling set holds %d slots, %d connections are at their ceiling", n, atCeiling)
	}
	// Aggregates agree with first-principles recomputation.
	if unprotected != m.unprotected {
		return violationf("cached unprotected %d, actual %d", m.unprotected, unprotected)
	}
	if bwSum != m.bwSum {
		return violationf("cached bwSum %v, actual %v", m.bwSum, bwSum)
	}
	for i := range hist {
		if hist[i] != m.levelHist[i] {
			return violationf("levelHist[%d] cached %d, actual %d", i, m.levelHist[i], hist[i])
		}
	}
	return nil
}
