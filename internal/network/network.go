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
// The ledger keeps per directed link only what admission, growth and the
// event kernels read: the sums of the primaries' grants and minima, the
// primaries and the backups as two sets of the caller's slots, and the
// worst single-failure burst (the conflict row and its maximum, the spare).
// It keeps no per-connection entry: every operation takes the caller's slot
// and amounts, and CheckInvariants recomputes the whole ledger from the
// caller's own record of its connections (Holding).
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
	"errors"
	"fmt"
	"slices"

	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// ErrCapacity reports an admission or adjustment that would exceed link
// capacity.
var ErrCapacity = errors.New("network: insufficient capacity")

// ErrLinkFailed reports use of a failed link.
var ErrLinkFailed = errors.New("network: link is failed")

// ErrUnknownConn reports an operation on a slot that holds no reservation
// on the link.
var ErrUnknownConn = errors.New("network: unknown connection")

// dirState is the resource ledger of one directed link. A slot is the
// caller's handle for one connection, distinct among its live connections.
type dirState struct {
	primaries SlotSet // slots holding a primary here
	grantSum  qos.Kbps
	minSum    qos.Kbps

	backups SlotSet // slots holding a backup here
	// conflict[f] is the bandwidth that must be freed on this directed
	// link when physical link f fails: the sum of minima of backups here
	// whose primary uses f. It has one entry per physical link of the
	// graph, zero where no backup here protects a primary on f.
	conflict []qos.Kbps
	// spare is the largest conflict entry, or without multiplexing the sum
	// of the backups' minima.
	spare qos.Kbps
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

// SetMultiplexing enables or disables backup multiplexing (enabled by
// default). It must be called before any backup is registered; flipping it
// with live backups would corrupt the cached spare values, so that case
// returns an error.
func (n *Network) SetMultiplexing(enabled bool) error {
	for i := range n.dirs {
		if k := n.dirs[i].backups.Count(); k > 0 {
			return fmt.Errorf("network: cannot change multiplexing with %d backups on directed link %d", k, i)
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

// SlotsOn returns the slots holding a primary on directed link d. The set is
// the ledger's own: read-only, and valid until the next reservation, release
// or activation on d.
func (n *Network) SlotsOn(d topology.DirLinkID) SlotSet { return n.dirs[d].primaries }

// BackupSlotsOn returns the slots holding a backup on directed link d, under
// the same read-only rule as SlotsOn.
func (n *Network) BackupSlotsOn(d topology.DirLinkID) SlotSet { return n.dirs[d].backups }

// CanAdmitPrimary reports whether a new primary with the given minimum
// could be admitted along route under minimum-level admission.
func (n *Network) CanAdmitPrimary(route routing.Path, min qos.Kbps) bool {
	for i := range route.Links {
		if n.AdmissionHeadroom(n.g.DirID(route.Links[i], route.Nodes[i])) < min {
			return false
		}
	}
	return true
}

// The operations take a route as its directed links, in order
// (routing.Path.AppendDirLinks), and a connection as the caller's slot; the
// caller passes the amounts it holds, which the ledger does not record per
// connection.

// ReservePrimary reserves min bandwidth for slot on the directed links of
// its route. Grants on every route link must currently leave room for min
// (the manager squeezes elastic channels first if necessary). The operation
// is atomic: on error nothing is reserved.
func (n *Network) ReservePrimary(slot int32, route []topology.DirLinkID, min qos.Kbps) error {
	if min <= 0 {
		return fmt.Errorf("network: non-positive reservation %v", min)
	}
	for _, d := range route {
		ds := &n.dirs[d]
		if n.failed[d.Link()] {
			return fmt.Errorf("%w: link %d on route of slot %d", ErrLinkFailed, d.Link(), slot)
		}
		if ds.primaries.Has(slot) {
			return fmt.Errorf("network: slot %d already reserved on directed link %d", slot, d)
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
		n.dirs[d].addPrimary(slot, min)
	}
	return nil
}

// addPrimary enters slot on ds at its minimum.
func (ds *dirState) addPrimary(slot int32, min qos.Kbps) {
	ds.primaries.Add(slot)
	ds.grantSum += min
	ds.minSum += min
}

// AdjustPrimary moves a primary's grant from from to to on every directed
// link of its route. Growth must fit the physical capacity of every link,
// and no link's grants may fall below its minima. Atomic.
func (n *Network) AdjustPrimary(route []topology.DirLinkID, from, to qos.Kbps) error {
	for _, d := range route {
		ds := &n.dirs[d]
		if g := ds.grantSum - from + to; g > n.capacity {
			return fmt.Errorf("%w: directed link %d cannot grow a grant from %v to %v",
				ErrCapacity, d, from, to)
		} else if g < ds.minSum {
			return fmt.Errorf("network: directed link %d grants %v would fall below minima %v", d, g, ds.minSum)
		}
	}
	for _, d := range route {
		n.dirs[d].grantSum += to - from
	}
	return nil
}

// ReleasePrimary removes slot's primary reservation, held at grant with
// minimum min, from the directed links of its route.
func (n *Network) ReleasePrimary(slot int32, route []topology.DirLinkID, grant, min qos.Kbps) error {
	for _, d := range route {
		if !n.dirs[d].primaries.Has(slot) {
			return fmt.Errorf("%w: slot %d on directed link %d", ErrUnknownConn, slot, d)
		}
	}
	for _, d := range route {
		ds := &n.dirs[d]
		ds.primaries.Remove(slot)
		ds.grantSum -= grant
		ds.minSum -= min
	}
	return nil
}

// CanAdmitBackup reports whether a backup with activation bandwidth min and
// the given physical primary links can be multiplexed onto every directed
// link of route without violating minimum-level admission (rule 1: the
// spare only grows where this backup conflicts with existing ones).
func (n *Network) CanAdmitBackup(route []topology.DirLinkID, primaryLinks []topology.LinkID, min qos.Kbps) bool {
	for _, d := range route {
		if n.failed[d.Link()] {
			return false
		}
		ds := &n.dirs[d]
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

// ReserveBackup registers slot's backup channel on every directed link of
// route, protecting the primary over primaryLinks. Atomic: on error nothing
// is registered.
func (n *Network) ReserveBackup(slot int32, route []topology.DirLinkID, primaryLinks []topology.LinkID, min qos.Kbps) error {
	if err := n.checkBackup(slot, route, primaryLinks, min); err != nil {
		return err
	}
	if !n.CanAdmitBackup(route, primaryLinks, min) {
		return fmt.Errorf("%w: backup of slot %d", ErrCapacity, slot)
	}
	n.addBackup(slot, route, primaryLinks, min)
	return nil
}

// RestoreBackup registers a backup channel without re-running the rule-3
// admission check. It exists for one caller: rebuilding a ledger from a
// durable snapshot, where every registration was admitted in the original
// run but the minima+spare bound may legitimately not hold any more (the
// post-failover dependability deficit). The rebuilt ledger is still
// validated wholesale by CheckInvariants.
func (n *Network) RestoreBackup(slot int32, route []topology.DirLinkID, primaryLinks []topology.LinkID, min qos.Kbps) error {
	if err := n.checkBackup(slot, route, primaryLinks, min); err != nil {
		return err
	}
	n.addBackup(slot, route, primaryLinks, min)
	return nil
}

// checkBackup validates a backup registration's arguments and that slot has
// no backup on the route yet.
func (n *Network) checkBackup(slot int32, route []topology.DirLinkID, primaryLinks []topology.LinkID, min qos.Kbps) error {
	if min <= 0 {
		return fmt.Errorf("network: non-positive backup reservation %v", min)
	}
	if len(primaryLinks) == 0 {
		return fmt.Errorf("network: backup of slot %d has no primary links", slot)
	}
	for _, d := range route {
		if n.dirs[d].backups.Has(slot) {
			return fmt.Errorf("network: backup of slot %d already on directed link %d", slot, d)
		}
	}
	return nil
}

// addBackup enters a checked registration on every directed link of route.
// The spare only ever grows here, by the new conflicts.
func (n *Network) addBackup(slot int32, route []topology.DirLinkID, primaryLinks []topology.LinkID, min qos.Kbps) {
	for _, d := range route {
		ds := &n.dirs[d]
		ds.backups.Add(slot)
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

// ReleaseBackup removes slot's backup registration, made with primaryLinks
// and min, along route.
func (n *Network) ReleaseBackup(slot int32, route []topology.DirLinkID, primaryLinks []topology.LinkID, min qos.Kbps) error {
	for _, d := range route {
		if !n.dirs[d].backups.Has(slot) {
			return fmt.Errorf("%w: backup of slot %d on directed link %d", ErrUnknownConn, slot, d)
		}
	}
	for _, d := range route {
		ds := &n.dirs[d]
		ds.backups.Remove(slot)
		if n.noMultiplex {
			ds.spare -= min
		}
		// The multiplexed spare is the largest conflict: it can only have
		// moved if one of the entries about to shrink was that largest.
		wasMax := false
		for _, f := range primaryLinks {
			wasMax = wasMax || ds.conflict[f] == ds.spare
			ds.conflict[f] -= min
		}
		if !n.noMultiplex && wasMax {
			ds.spare = slices.Max(ds.conflict)
		}
	}
	return nil
}

// ActivateBackup converts slot's backup registration along route (made with
// primaryLinks and min) into a primary reservation at min (the activated
// channel runs at Bmin, §3.1). The spare it occupied is released. The
// manager must already have squeezed primaries on these links so the minimum
// fits within physical capacity.
func (n *Network) ActivateBackup(slot int32, route []topology.DirLinkID, primaryLinks []topology.LinkID, min qos.Kbps) error {
	for _, d := range route {
		ds := &n.dirs[d]
		if !ds.backups.Has(slot) {
			return fmt.Errorf("%w: backup of slot %d on directed link %d", ErrUnknownConn, slot, d)
		}
		if ds.primaries.Has(slot) {
			return fmt.Errorf("network: slot %d already primary on directed link %d", slot, d)
		}
		// Feasibility against physical capacity, before mutating anything.
		if ds.grantSum+min > n.capacity {
			return fmt.Errorf("%w: activating backup of slot %d on directed link %d (%v granted of %v)",
				ErrCapacity, slot, d, ds.grantSum, n.capacity)
		}
	}
	if err := n.ReleaseBackup(slot, route, primaryLinks, min); err != nil {
		return err
	}
	for _, d := range route {
		n.dirs[d].addPrimary(slot, min)
	}
	return nil
}

// RenumberSlots moves every recorded slot s to to[s], in both sets of every
// link. The caller renumbers its own table the same way: to must cover every
// slot the ledger holds, keep their order and move none up.
func (n *Network) RenumberSlots(to []int32) {
	for di := range n.dirs {
		n.dirs[di].primaries.renumber(to)
		n.dirs[di].backups.renumber(to)
	}
}

// Holding is one connection's claim on the ledger as its owner records it:
// its slot, the directed links of its primary with the grant and minimum it
// holds there, and the directed links of its backup (nil without one), which
// protects that primary at the minimum.
type Holding struct {
	Slot       int32
	Primary    []topology.DirLinkID
	Grant, Min qos.Kbps
	Backup     []topology.DirLinkID
}

// CheckInvariants recomputes the whole ledger from holdings, the caller's
// record of every connection it holds, and verifies the conservation rules
// in DESIGN.md §6: no slot held twice and no grant below its minimum; on
// every directed link, exactly the holdings' primaries and backups entered
// in its two sets, the grant and minimum sums theirs and the grants within
// capacity, and the conflict row and the spare what the backups imply. It is
// O(links × holdings) and intended for tests, audits and debugging.
//
// The dependability reserve rule (minima + spare ≤ capacity) is NOT part of
// this check: it is guaranteed at admission time but transiently violated
// between a backup activation and the re-establishment of protection (the
// paper's single-failure assumption).
func (n *Network) CheckInvariants(holdings []Holding) error {
	type sums struct {
		grant, min, backupMin qos.Kbps
		primaries, backups    int
		backupHolders         []int32 // indices into holdings
	}
	want := make([]sums, len(n.dirs))
	var seen SlotSet
	for i, h := range holdings {
		if h.Grant < h.Min {
			return fmt.Errorf("slot %d: grant %v below min %v", h.Slot, h.Grant, h.Min)
		}
		if seen.Has(h.Slot) {
			return fmt.Errorf("slot %d held by two connections", h.Slot)
		}
		seen.Add(h.Slot)
		for _, d := range h.Primary {
			if !n.dirs[d].primaries.Has(h.Slot) {
				return fmt.Errorf("directed link %d: primary of slot %d not entered", d, h.Slot)
			}
			w := &want[d]
			w.grant += h.Grant
			w.min += h.Min
			w.primaries++
		}
		for _, d := range h.Backup {
			if !n.dirs[d].backups.Has(h.Slot) {
				return fmt.Errorf("directed link %d: backup of slot %d not entered", d, h.Slot)
			}
			w := &want[d]
			w.backupMin += h.Min
			w.backups++
			w.backupHolders = append(w.backupHolders, int32(i))
		}
	}
	conflict := make([]qos.Kbps, n.g.NumLinks())
	for di := range n.dirs {
		ds, w := &n.dirs[di], &want[di]
		if got := ds.primaries.Count(); got != w.primaries {
			return fmt.Errorf("directed link %d: %d primaries entered, %d primary routes cross it", di, got, w.primaries)
		}
		if ds.grantSum != w.grant {
			return fmt.Errorf("directed link %d: cached grantSum %v, actual %v", di, ds.grantSum, w.grant)
		}
		if ds.minSum != w.min {
			return fmt.Errorf("directed link %d: cached minSum %v, actual %v", di, ds.minSum, w.min)
		}
		if w.grant > n.capacity {
			return fmt.Errorf("directed link %d: grants %v exceed capacity %v", di, w.grant, n.capacity)
		}
		if got := ds.backups.Count(); got != w.backups {
			return fmt.Errorf("directed link %d: %d backups entered, %d backup routes cross it", di, got, w.backups)
		}
		clear(conflict)
		for _, i := range w.backupHolders {
			h := &holdings[i]
			for _, p := range h.Primary {
				conflict[p.Link()] += h.Min
			}
		}
		spare := w.backupMin
		if !n.noMultiplex {
			spare = slices.Max(conflict)
		}
		for f, v := range conflict {
			if ds.conflict[f] != v {
				return fmt.Errorf("directed link %d: conflict[%d] cached %v, actual %v", di, f, ds.conflict[f], v)
			}
		}
		if spare != ds.spare {
			return fmt.Errorf("directed link %d: cached spare %v, actual %v", di, ds.spare, spare)
		}
	}
	return nil
}
