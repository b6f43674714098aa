// Package network tracks per-link resource state for DR-connections: primary
// reservations (which grow and shrink with elastic QoS), and the multiplexed
// spare pools reserved for passive backup channels (§2.1.2).
//
// Real-time channels are unidirectional virtual circuits [3], so every
// reservation lives on a DIRECTED link (topology.DirLinkID): the two
// directions of a physical link carry independent capacities, matching the
// paper's resource model (its "354 edges" on the 100-node network count
// directed edges). A physical failure takes out both directions.
//
// The accounting realizes three rules from the paper:
//
//  1. Backups reserve capacity but do not consume it: the spare pool on a
//     directed link is sized by the worst single-failure activation burst,
//     not the sum of all backups ("overbooking", §2.1.2).
//  2. Primaries may borrow the idle spare: grants are limited by physical
//     capacity only. On failure the spare is reclaimed by squeezing
//     primaries back to their minima (§3.1).
//  3. Admission is judged at minimum levels: a new primary fits on a link
//     iff Σ minima + spare + newMin ≤ capacity, because every elastic
//     primary can always be squeezed to its minimum.
package network

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"drqos/internal/channel"
	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// ErrCapacity reports an admission or adjustment that would exceed link
// capacity.
var ErrCapacity = errors.New("network: insufficient capacity")

// ErrLinkFailed reports use of a failed link.
var ErrLinkFailed = errors.New("network: link is failed")

// ErrUnknownConn reports an operation on a connection that holds no
// reservation on the link.
var ErrUnknownConn = errors.New("network: unknown connection")

// Reservation is one primary's entry on a directed link.
type Reservation struct {
	ID    channel.ConnID
	Grant qos.Kbps // current reservation, Min ≤ Grant
	Min   qos.Kbps
	// Slot is the reserving caller's own handle for ID, stored verbatim
	// and distinct among the primaries of a link: the manager keeps its
	// dense connection index here, so walking a link list leads to its
	// connections without a lookup by ID, and the link's slot set (SlotsOn)
	// names them all at once.
	Slot int32
}

// Backup is one backup channel registered on a directed link: its
// guaranteed activation bandwidth and the physical links of its primary
// route (the failures that would activate it).
type Backup struct {
	ID           channel.ConnID
	Min          qos.Kbps
	PrimaryLinks []topology.LinkID
	// Slot is the registering caller's handle for ID, stored verbatim as
	// Reservation.Slot is.
	Slot int32
}

// dirState is the resource ledger of one directed link. The two lists are
// sorted by ID and are the index of who is on the link; slots holds the
// primaries' Slot values again, as a set the manager unions.
type dirState struct {
	primaries []Reservation
	slots     SlotSet
	grantSum  qos.Kbps
	minSum    qos.Kbps

	backups []Backup
	// conflict[f] is the bandwidth that must be freed on this directed
	// link when physical link f fails: the sum of minima of backups here
	// whose primary uses f. It has one entry per physical link of the
	// graph, zero where no backup here protects a primary on f.
	conflict []qos.Kbps
	spare    qos.Kbps // cached max over conflict
}

// primary returns the position of id in the primaries list, or where it
// would be inserted. Hand-rolled: every squeeze and every committed growth
// searches each link of a route, and a generic search pays an indirect
// call per probe for its comparison callback.
func (ds *dirState) primary(id channel.ConnID) (int, bool) {
	lo, hi := 0, len(ds.primaries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ds.primaries[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(ds.primaries) && ds.primaries[lo].ID == id
}

// backup is primary's counterpart for the backups list.
func (ds *dirState) backup(id channel.ConnID) (int, bool) {
	return slices.BinarySearchFunc(ds.backups, id, func(b Backup, id channel.ConnID) int {
		return cmp.Compare(b.ID, id)
	})
}

func (ds *dirState) recomputeSpare(noMultiplex bool) {
	var m qos.Kbps
	if noMultiplex {
		for i := range ds.backups {
			m += ds.backups[i].Min
		}
	} else {
		m = slices.Max(ds.conflict)
	}
	ds.spare = m
}

// Network is the resource ledger for an entire topology.
type Network struct {
	g        *topology.Graph
	capacity qos.Kbps
	dirs     []dirState
	failed   []bool // per physical link
	// noMultiplex disables backup multiplexing: the spare on a directed
	// link becomes the SUM of all backup minima instead of the worst
	// single-failure burst. Used by the multiplexing ablation.
	noMultiplex bool
}

// New builds a Network over g with a uniform per-direction link capacity,
// matching the paper's setting ("we assume that the bandwidth is the same
// for all links in a given network", 10 Mb/s).
func New(g *topology.Graph, capacity qos.Kbps) (*Network, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("network: non-positive capacity %v", capacity)
	}
	n := &Network{
		g:        g,
		capacity: capacity,
		dirs:     make([]dirState, g.NumDirLinks()),
		failed:   make([]bool, g.NumLinks()),
	}
	// One table of 2·L² conflict entries, a row per directed link: 0.5 MB
	// on the benchmark's 184-link graph.
	links := g.NumLinks()
	table := make([]qos.Kbps, len(n.dirs)*links)
	for i := range n.dirs {
		n.dirs[i].conflict = table[i*links : (i+1)*links : (i+1)*links]
	}
	return n, nil
}

// dir returns the state of the i-th directed link route traverses.
func (n *Network) dir(route routing.Path, i int) (topology.DirLinkID, *dirState) {
	d := n.g.DirID(route.Links[i], route.Nodes[i])
	return d, &n.dirs[d]
}

// SetMultiplexing enables or disables backup multiplexing (enabled by
// default). It must be called before any backup is registered; flipping it
// with live backups would corrupt the cached spare values, so that case
// returns an error.
func (n *Network) SetMultiplexing(enabled bool) error {
	for i := range n.dirs {
		if len(n.dirs[i].backups) > 0 {
			return fmt.Errorf("network: cannot change multiplexing with %d backups on directed link %d",
				len(n.dirs[i].backups), i)
		}
	}
	n.noMultiplex = !enabled
	return nil
}

// Capacity returns the per-direction capacity (uniform across links).
func (n *Network) Capacity() qos.Kbps { return n.capacity }

// Failed reports whether physical link l is currently failed.
func (n *Network) Failed(l topology.LinkID) bool { return n.failed[l] }

// SetFailed marks physical link l failed or repaired. Resource reservations
// are not touched: the manager decides what to fail over and release.
func (n *Network) SetFailed(l topology.LinkID, failed bool) { n.failed[l] = failed }

// FreeForGrowth returns the bandwidth a primary on directed link d could
// still grow into right now: physical capacity minus current grants (idle
// backup spare is borrowable, rule 2).
func (n *Network) FreeForGrowth(d topology.DirLinkID) qos.Kbps {
	if n.failed[d.Link()] {
		return 0
	}
	return n.capacity - n.dirs[d].grantSum
}

// LoadFreeForGrowth sets room[d] to FreeForGrowth(d) for every directed link
// d, in one pass over the ledger.
func (n *Network) LoadFreeForGrowth(room []qos.Kbps) {
	for d := range n.dirs {
		room[d] = n.FreeForGrowth(topology.DirLinkID(d))
	}
}

// LoadAdmissionHeadroom sets headroom[d] to AdmissionHeadroom(d) for every
// directed link d, in one pass over the ledger: the allowances bounded
// flooding reads.
func (n *Network) LoadAdmissionHeadroom(headroom []float64) {
	for d := range n.dirs {
		headroom[d] = float64(n.AdmissionHeadroom(topology.DirLinkID(d)))
	}
}

// AdmissionHeadroom returns the bandwidth available to a NEW primary on
// directed link d under minimum-level admission (rule 3).
func (n *Network) AdmissionHeadroom(d topology.DirLinkID) qos.Kbps {
	if n.failed[d.Link()] {
		return 0
	}
	ds := &n.dirs[d]
	free := n.capacity - ds.minSum - ds.spare
	if free < 0 {
		return 0
	}
	return free
}

// PrimariesOn returns the primary reservations on directed link d in
// ascending ID order. The slice is the ledger's own list: read-only, and
// valid until the next reservation, release or activation on d (an
// AdjustPrimary changes a Grant in place but moves nothing).
func (n *Network) PrimariesOn(d topology.DirLinkID) []Reservation { return n.dirs[d].primaries }

// SlotsOn returns the Slot of every primary on directed link d as a set,
// under the same read-only rule as PrimariesOn.
func (n *Network) SlotsOn(d topology.DirLinkID) SlotSet { return n.dirs[d].slots }

// BackupsOn returns the backups registered on directed link d in ascending
// ID order, under the same read-only rule as PrimariesOn.
func (n *Network) BackupsOn(d topology.DirLinkID) []Backup { return n.dirs[d].backups }

// CanAdmitPrimary reports whether a new primary with the given minimum
// could be admitted along route under minimum-level admission.
func (n *Network) CanAdmitPrimary(route routing.Path, min qos.Kbps) bool {
	for i := range route.Links {
		if d, _ := n.dir(route, i); n.AdmissionHeadroom(d) < min {
			return false
		}
	}
	return true
}

// addPrimary enters id at position i of ds's list at its minimum.
func (ds *dirState) addPrimary(i int, id channel.ConnID, slot int32, min qos.Kbps) {
	ds.primaries = slices.Insert(ds.primaries, i, Reservation{ID: id, Grant: min, Min: min, Slot: slot})
	ds.slots.Add(slot)
	ds.grantSum += min
	ds.minSum += min
}

// The primary operations take a route as its directed links, in order
// (routing.Path.AppendDirLinks): the manager caches them per connection, so
// no hop's direction is derived again on a write.

// ReservePrimary reserves min bandwidth for conn id on the directed links of
// its route, recording slot with every entry. Grants on every route link
// must currently leave room for min (the manager squeezes elastic channels
// first if necessary). The operation is atomic: on error nothing is
// reserved.
func (n *Network) ReservePrimary(id channel.ConnID, slot int32, route []topology.DirLinkID, min qos.Kbps) error {
	if min <= 0 {
		return fmt.Errorf("network: non-positive reservation %v", min)
	}
	for _, d := range route {
		ds := &n.dirs[d]
		if n.failed[d.Link()] {
			return fmt.Errorf("%w: link %d on route of conn %d", ErrLinkFailed, d.Link(), id)
		}
		if _, dup := ds.primary(id); dup || ds.slots.Has(slot) {
			return fmt.Errorf("network: conn %d or slot %d already reserved on directed link %d", id, slot, d)
		}
		if ds.grantSum+min > n.capacity {
			return fmt.Errorf("%w: directed link %d has %v granted of %v, cannot add %v",
				ErrCapacity, d, ds.grantSum, n.capacity, min)
		}
		if ds.minSum+ds.spare+min > n.capacity {
			return fmt.Errorf("%w: directed link %d minima %v + spare %v + new %v exceeds %v",
				ErrCapacity, d, ds.minSum, ds.spare, min, n.capacity)
		}
	}
	for _, d := range route {
		ds := &n.dirs[d]
		at, _ := ds.primary(id)
		ds.addPrimary(at, id, slot, min)
	}
	return nil
}

// AdjustPrimary changes conn id's reservation to newGrant on every directed
// link of its route. newGrant must be at least the connection's minimum;
// growth must fit the physical capacity of every link. Atomic.
func (n *Network) AdjustPrimary(id channel.ConnID, route []topology.DirLinkID, newGrant qos.Kbps) error {
	// The checking pass remembers where it found id on each link, so the
	// writing pass searches again only on routes longer than that memory.
	var found [16]int
	for i, d := range route {
		ds := &n.dirs[d]
		at, ok := ds.primary(id)
		if !ok {
			return fmt.Errorf("%w: conn %d on directed link %d", ErrUnknownConn, id, d)
		}
		r := &ds.primaries[at]
		if newGrant < r.Min {
			return fmt.Errorf("network: grant %v below minimum %v for conn %d", newGrant, r.Min, id)
		}
		if ds.grantSum-r.Grant+newGrant > n.capacity {
			return fmt.Errorf("%w: directed link %d cannot grow conn %d from %v to %v",
				ErrCapacity, d, id, r.Grant, newGrant)
		}
		if i < len(found) {
			found[i] = at
		}
	}
	for i, d := range route {
		ds := &n.dirs[d]
		var at int
		if i < len(found) {
			at = found[i]
		} else {
			at, _ = ds.primary(id)
		}
		r := &ds.primaries[at]
		ds.grantSum += newGrant - r.Grant
		r.Grant = newGrant
	}
	return nil
}

// ReleasePrimary removes conn id's primary reservation from the directed
// links of its route.
func (n *Network) ReleasePrimary(id channel.ConnID, route []topology.DirLinkID) error {
	for _, d := range route {
		if _, ok := n.dirs[d].primary(id); !ok {
			return fmt.Errorf("%w: conn %d on directed link %d", ErrUnknownConn, id, d)
		}
	}
	for _, d := range route {
		ds := &n.dirs[d]
		at, _ := ds.primary(id)
		ds.grantSum -= ds.primaries[at].Grant
		ds.minSum -= ds.primaries[at].Min
		ds.slots.Remove(ds.primaries[at].Slot)
		ds.primaries = slices.Delete(ds.primaries, at, at+1)
	}
	return nil
}

// CanAdmitBackup reports whether a backup with activation bandwidth min and
// the given physical primary links can be multiplexed onto every directed
// link of backupRoute without violating minimum-level admission (rule 1:
// the spare only grows where this backup conflicts with existing ones).
func (n *Network) CanAdmitBackup(backupRoute routing.Path, primaryLinks []topology.LinkID, min qos.Kbps) bool {
	for i := range backupRoute.Links {
		d, ds := n.dir(backupRoute, i)
		if n.failed[d.Link()] {
			return false
		}
		newSpare := ds.spare
		if n.noMultiplex {
			newSpare += min
		} else {
			for _, f := range primaryLinks {
				if c := ds.conflict[f] + min; c > newSpare {
					newSpare = c
				}
			}
		}
		if ds.minSum+newSpare > n.capacity {
			return false
		}
	}
	return true
}

// ReserveBackup registers a backup channel on every directed link of
// backupRoute, recording slot with every entry. Atomic: on error nothing is
// registered.
func (n *Network) ReserveBackup(id channel.ConnID, slot int32, backupRoute routing.Path, primaryLinks []topology.LinkID, min qos.Kbps) error {
	if err := n.checkBackup(id, backupRoute, primaryLinks, min); err != nil {
		return err
	}
	if !n.CanAdmitBackup(backupRoute, primaryLinks, min) {
		return fmt.Errorf("%w: backup of conn %d", ErrCapacity, id)
	}
	n.addBackup(id, slot, backupRoute, primaryLinks, min)
	return nil
}

// RestoreBackup registers a backup channel without re-running the rule-3
// admission check. It exists for one caller: rebuilding a ledger from a
// durable snapshot, where every registration was admitted in the original
// run but the minima+spare bound may legitimately not hold any more (the
// post-failover dependability deficit). The rebuilt ledger is still
// validated wholesale by CheckInvariants.
func (n *Network) RestoreBackup(id channel.ConnID, slot int32, backupRoute routing.Path, primaryLinks []topology.LinkID, min qos.Kbps) error {
	if err := n.checkBackup(id, backupRoute, primaryLinks, min); err != nil {
		return err
	}
	n.addBackup(id, slot, backupRoute, primaryLinks, min)
	return nil
}

// checkBackup validates a backup registration's arguments and that id has
// no backup on the route yet.
func (n *Network) checkBackup(id channel.ConnID, backupRoute routing.Path, primaryLinks []topology.LinkID, min qos.Kbps) error {
	if min <= 0 {
		return fmt.Errorf("network: non-positive backup reservation %v", min)
	}
	if len(primaryLinks) == 0 {
		return fmt.Errorf("network: backup for conn %d has no primary links", id)
	}
	for i := range backupRoute.Links {
		d, ds := n.dir(backupRoute, i)
		if _, dup := ds.backup(id); dup {
			return fmt.Errorf("network: backup of conn %d already on directed link %d", id, d)
		}
	}
	return nil
}

// addBackup enters a checked registration on every directed link of
// backupRoute. The spare only ever grows here, by the new conflicts.
func (n *Network) addBackup(id channel.ConnID, slot int32, backupRoute routing.Path, primaryLinks []topology.LinkID, min qos.Kbps) {
	reg := Backup{ID: id, Min: min, PrimaryLinks: slices.Clone(primaryLinks), Slot: slot}
	for i := range backupRoute.Links {
		_, ds := n.dir(backupRoute, i)
		at, _ := ds.backup(id)
		ds.backups = slices.Insert(ds.backups, at, reg)
		for _, f := range primaryLinks {
			ds.conflict[f] += min
		}
		if n.noMultiplex {
			ds.spare += min
			continue
		}
		for _, f := range primaryLinks {
			if ds.conflict[f] > ds.spare {
				ds.spare = ds.conflict[f]
			}
		}
	}
}

// ReleaseBackup removes conn id's backup registration along backupRoute.
func (n *Network) ReleaseBackup(id channel.ConnID, backupRoute routing.Path) error {
	for i := range backupRoute.Links {
		d, ds := n.dir(backupRoute, i)
		if _, ok := ds.backup(id); !ok {
			return fmt.Errorf("%w: backup of conn %d on directed link %d", ErrUnknownConn, id, d)
		}
	}
	for i := range backupRoute.Links {
		_, ds := n.dir(backupRoute, i)
		at, _ := ds.backup(id)
		reg := ds.backups[at]
		ds.backups = slices.Delete(ds.backups, at, at+1)
		// The multiplexed spare is the largest conflict: it can only have
		// moved if one of the entries about to shrink was that largest.
		wasMax := false
		for _, f := range reg.PrimaryLinks {
			wasMax = wasMax || ds.conflict[f] == ds.spare
			ds.conflict[f] -= reg.Min
		}
		if n.noMultiplex || wasMax {
			ds.recomputeSpare(n.noMultiplex)
		}
	}
	return nil
}

// ActivateBackup converts conn id's backup registration along backupRoute
// into a primary reservation at the registered minimum (the activated
// channel runs at Bmin, §3.1), recording slot as ReservePrimary does. The
// spare it occupied is released. The manager must already have squeezed
// primaries on these links so the minimum fits within physical capacity.
func (n *Network) ActivateBackup(id channel.ConnID, slot int32, backupRoute routing.Path) error {
	var min qos.Kbps
	for i := range backupRoute.Links {
		d, ds := n.dir(backupRoute, i)
		at, ok := ds.backup(id)
		if !ok {
			return fmt.Errorf("%w: backup of conn %d on directed link %d", ErrUnknownConn, id, d)
		}
		min = ds.backups[at].Min
		if _, dup := ds.primary(id); dup || ds.slots.Has(slot) {
			return fmt.Errorf("network: conn %d or slot %d already primary on directed link %d", id, slot, d)
		}
	}
	// Feasibility against physical capacity, before mutating anything.
	for i := range backupRoute.Links {
		d, ds := n.dir(backupRoute, i)
		if ds.grantSum+min > n.capacity {
			return fmt.Errorf("%w: activating backup of conn %d on directed link %d (%v granted of %v)",
				ErrCapacity, id, d, ds.grantSum, n.capacity)
		}
	}
	if err := n.ReleaseBackup(id, backupRoute); err != nil {
		return err
	}
	for i := range backupRoute.Links {
		_, ds := n.dir(backupRoute, i)
		at, _ := ds.primary(id)
		ds.addPrimary(at, id, slot, min)
	}
	return nil
}

// RenumberSlots rewrites every recorded slot s as to[s], on primaries and
// backups alike, and rebuilds the slot sets. The caller renumbers its own
// table the same way; to must cover every slot the ledger holds.
func (n *Network) RenumberSlots(to []int32) {
	for di := range n.dirs {
		ds := &n.dirs[di]
		ds.slots = ds.slots[:0]
		for i := range ds.primaries {
			r := &ds.primaries[i]
			r.Slot = to[r.Slot]
			ds.slots.Add(r.Slot)
		}
		for i := range ds.backups {
			ds.backups[i].Slot = to[ds.backups[i].Slot]
		}
	}
}

// CheckInvariants recomputes every cached quantity from first principles
// and verifies the conservation rules in DESIGN.md §6: each list strictly
// ascending by ID (so no connection is entered twice), each slot set
// holding exactly its primaries' slots, every grant at or
// above its minimum, the cached sums equal to the lists' sums and within
// capacity, and the conflict table and spare equal to what the backups list
// implies. It is O(links × reservations) and intended for tests and
// debugging.
//
// The dependability reserve rule (minima + spare ≤ capacity) is NOT part of
// this check: it is guaranteed at admission time but transiently violated
// between a backup activation and the re-establishment of protection (the
// paper's single-failure assumption).
func (n *Network) CheckInvariants() error {
	conflict := make([]qos.Kbps, n.g.NumLinks())
	for di := range n.dirs {
		ds := &n.dirs[di]
		var grantSum, minSum qos.Kbps
		for i, r := range ds.primaries {
			if i > 0 && ds.primaries[i-1].ID >= r.ID {
				return fmt.Errorf("dir link %d: primaries not strictly ascending at %d (conn %d after %d)",
					di, i, r.ID, ds.primaries[i-1].ID)
			}
			if r.Grant < r.Min {
				return fmt.Errorf("dir link %d: conn %d grant %v below min %v", di, r.ID, r.Grant, r.Min)
			}
			grantSum += r.Grant
			minSum += r.Min
		}
		if grantSum != ds.grantSum {
			return fmt.Errorf("dir link %d: cached grantSum %v, actual %v", di, ds.grantSum, grantSum)
		}
		if minSum != ds.minSum {
			return fmt.Errorf("dir link %d: cached minSum %v, actual %v", di, ds.minSum, minSum)
		}
		if grantSum > n.capacity {
			return fmt.Errorf("dir link %d: grants %v exceed capacity %v", di, grantSum, n.capacity)
		}
		if got := ds.slots.Count(); got != len(ds.primaries) {
			return fmt.Errorf("dir link %d: slot set holds %d slots for %d primaries", di, got, len(ds.primaries))
		}
		for _, r := range ds.primaries {
			if !ds.slots.Has(r.Slot) {
				return fmt.Errorf("dir link %d: slot set lacks slot %d of conn %d", di, r.Slot, r.ID)
			}
		}
		clear(conflict)
		var spare qos.Kbps
		for i, reg := range ds.backups {
			if i > 0 && ds.backups[i-1].ID >= reg.ID {
				return fmt.Errorf("dir link %d: backups not strictly ascending at %d (conn %d after %d)",
					di, i, reg.ID, ds.backups[i-1].ID)
			}
			for _, f := range reg.PrimaryLinks {
				conflict[f] += reg.Min
			}
			if n.noMultiplex {
				spare += reg.Min
			}
		}
		for f, v := range conflict {
			if ds.conflict[f] != v {
				return fmt.Errorf("dir link %d: conflict[%d] cached %v, actual %v", di, f, ds.conflict[f], v)
			}
			if !n.noMultiplex && v > spare {
				spare = v
			}
		}
		if spare != ds.spare {
			return fmt.Errorf("dir link %d: cached spare %v, actual %v", di, ds.spare, spare)
		}
	}
	return nil
}
