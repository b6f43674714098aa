package manager

import (
	"fmt"
	"slices"

	"drqos/internal/channel"
	"drqos/internal/topology"
)

// Terminate releases a DR-connection normally. The channels that shared
// links with it may grow into the freed capacity (§3.1: "the primary
// channels that have shared links with this terminating connection can now
// reserve more resources").
func (m *Manager) Terminate(id channel.ConnID) (rep *TerminationReport, err error) {
	defer tagViolation(&err, "terminate")
	s, ok := m.conns[id]
	if !ok {
		return nil, fmt.Errorf("manager: terminate unknown or dead conn %d", id)
	}
	c := m.slots[s].conn
	// The sharers — alive connections, other than c, whose primary shares
	// at least one link with c's — are the population this event can move,
	// and once c is released exactly the primaries left on its links. They
	// are the directly chained channels of the route that leaves; none is
	// chained indirectly.
	m.beginEvent()
	w := &m.work
	m.union(w.direct, m.slots[s].dirs)
	w.direct.Remove(s)
	copy(w.chained, w.direct)

	if err := m.net.ReleasePrimary(id, m.slots[s].dirs); err != nil {
		return nil, wrapViolation(err, "release primary of conn %d", id)
	}
	if c.HasBackup {
		if err := m.net.ReleaseBackup(id, c.Backup); err != nil {
			return nil, wrapViolation(err, "release backup of conn %d", id)
		}
	}
	if err := m.trackRemove(s); err != nil {
		return nil, err
	}
	if err := c.Close(); err != nil {
		return nil, wrapViolation(err, "close conn %d", id)
	}

	if err := m.redistribute(w.chained, nil); err != nil {
		return nil, err
	}
	return &TerminationReport{Affected: w.direct.Count(), Changes: m.chainChanges(0)}, nil
}

// FailLink injects a failure of link l (§3.1): every DR-connection whose
// primary traverses l activates its backup; primaries sharing links with the
// activated backups retreat to their minima; remaining extras are then
// redistributed. Connections without a usable backup are dropped.
// Connections whose BACKUP traversed l lose protection and try to
// re-establish a backup elsewhere.
func (m *Manager) FailLink(l topology.LinkID) (rep *FailureReport, err error) {
	defer tagViolation(&err, "fail_link")
	if int(l) < 0 || int(l) >= m.g.NumLinks() {
		return nil, fmt.Errorf("manager: no such link %d", l)
	}
	if m.net.Failed(l) {
		return nil, fmt.Errorf("manager: link %d already failed", l)
	}
	m.net.SetFailed(l, true)
	m.beginEvent()
	w := &m.work

	// Classify the affected connections before mutating, each class by
	// ascending ID (slot order), from the failed link's own entries: the
	// primaries on its two directions are the victims, the backups there
	// whose primary is intact have lost their protection.
	ends := m.g.Link(l)
	both := [2]topology.DirLinkID{m.g.DirID(l, ends.A), m.g.DirID(l, ends.B)}
	m.union(w.victims, both[:])
	w.dying = w.victims.AppendMembers(w.dying)
	for _, d := range both {
		for _, b := range m.net.BackupsOn(d) {
			if !m.slots[b.Slot].crosses(l) {
				w.lost = append(w.lost, b.Slot)
			}
		}
	}
	slices.Sort(w.lost)

	report := &FailureReport{}

	// The directed links where backups will activate: primaries there must
	// retreat first so the reclaimed spare is actually free (§3.1).
	for _, s := range w.dying {
		if v := m.slots[s].conn; v.HasBackup && !v.BackupUsesLink(l) {
			w.route = v.Backup.AppendDirLinks(w.route[:0], m.g)
			for _, bd := range w.route {
				if w.linkMarks.set(int(bd), linkListed) {
					w.links = append(w.links, bd)
				}
			}
		}
	}

	// The populations this failure can move: channels on the activation
	// links (squeezed, then possibly re-grown) and channels sharing links
	// with the victims' released primaries (they grow afterwards). Victims
	// themselves transition out of the chain.
	//
	// The squeeze goes to the ledger, not only to the plan: ActivateBackup
	// tests each victim's minimum against the grants as they stand.
	m.union(w.direct, w.links)
	w.direct.AndNot(w.victims)
	for _, s := range w.dying {
		for _, d := range m.slots[s].dirs {
			w.chained.Or(m.net.SlotsOn(d))
		}
	}
	w.chained.AndNot(w.victims)
	w.chained.Or(w.direct)
	w.squeeze = w.direct.AppendMembers(w.squeeze)
	for _, s := range w.squeeze {
		if err := m.squeezeToMin(s); err != nil {
			return nil, err
		}
	}

	// Fail the victims over (or drop them). Capacity moves on every link a
	// victim leaves or lands on.
	for _, s := range w.dying {
		v := m.slots[s].conn
		m.addRegion(m.slots[s].dirs)
		if err := m.net.ReleasePrimary(v.ID, m.slots[s].dirs); err != nil {
			return nil, wrapViolation(err, "release failed primary of conn %d", v.ID)
		}
		usable := v.HasBackup && !v.BackupUsesLink(l)
		if usable {
			if err := m.net.ActivateBackup(v.ID, s, v.Backup); err == nil {
				if err := v.FailOver(); err != nil {
					return nil, wrapViolation(err, "fail over conn %d", v.ID)
				}
				m.cacheDirs(s)
				// The activated backup runs at its minimum (§3.1).
				if err := m.setLevel(s, 0); err != nil {
					return nil, err
				}
				m.unprotected++ // the activated backup IS the primary now
				report.Activated = append(report.Activated, v.ID)
				continue
			}
			// Even after the squeeze the backup's minimum does not fit
			// (e.g. overlapping earlier failures): the connection drops.
			if err := m.net.ReleaseBackup(v.ID, v.Backup); err != nil {
				return nil, wrapViolation(err, "release unusable backup of conn %d", v.ID)
			}
			if err := v.DetachBackup(); err != nil {
				return nil, wrapViolation(err, "detach unusable backup of conn %d", v.ID)
			}
			m.unprotected++
		} else if v.HasBackup {
			// The backup crosses the failed link too.
			if err := m.net.ReleaseBackup(v.ID, v.Backup); err != nil {
				return nil, wrapViolation(err, "release dead backup of conn %d", v.ID)
			}
			if err := v.DetachBackup(); err != nil {
				return nil, wrapViolation(err, "detach dead backup of conn %d", v.ID)
			}
			m.unprotected++
		}
		if m.cfg.ReactiveRecovery {
			recovered, err := m.tryReestablish(s)
			if err != nil {
				return nil, err
			}
			if recovered {
				m.addRegion(m.slots[s].dirs)
				report.Recovered = append(report.Recovered, v.ID)
				continue
			}
		}
		if err := m.trackRemove(s); err != nil {
			return nil, err
		}
		if err := v.Drop(); err != nil {
			return nil, wrapViolation(err, "drop conn %d", v.ID)
		}
		report.Dropped = append(report.Dropped, v.ID)
	}

	// Connections that only lost their backup: release the registration
	// and try to protect them again elsewhere.
	for _, s := range w.lost {
		c := m.slots[s].conn
		if err := m.net.ReleaseBackup(c.ID, c.Backup); err != nil {
			return nil, wrapViolation(err, "release lost backup of conn %d", c.ID)
		}
		if err := c.DetachBackup(); err != nil {
			return nil, wrapViolation(err, "detach lost backup of conn %d", c.ID)
		}
		m.unprotected++
		report.BackupsLost = append(report.BackupsLost, c.ID)
		if _, err := m.tryReprotect(s); err != nil {
			return nil, err
		}
	}

	// Freshly failed-over connections run unprotected; try to establish a
	// replacement backup for them.
	for _, id := range report.Activated {
		if _, err := m.tryReprotect(m.conns[id]); err != nil {
			return nil, err
		}
	}

	// Redistribute around every link whose capacity moved. Unlike an
	// arrival's, this population is not the chained one: it gains the
	// failed-over victims and, under reactive recovery, whoever shares a
	// re-established route.
	m.addRegion(w.links)
	m.union(w.cands, w.region)
	if err := m.redistribute(w.cands, nil); err != nil {
		return nil, err
	}
	report.Squeezed, report.Changes = m.ids(w.direct), m.chainChanges(0)
	return report, nil
}

// addRegion adds directed links to the failure's region, once each.
func (m *Manager) addRegion(dirs []topology.DirLinkID) {
	w := &m.work
	for _, d := range dirs {
		if w.linkMarks.set(int(d), linkRegion) {
			w.region = append(w.region, d)
		}
	}
}

// RepairLink marks a failed link repaired and opportunistically re-protects
// connections that currently lack a backup. It returns how many backups
// were re-established. Connections do not fail back: the activated backup
// remains their primary route (the paper's scheme restores protection, not
// placement).
func (m *Manager) RepairLink(l topology.LinkID) (restored int, err error) {
	defer tagViolation(&err, "repair_link")
	if int(l) < 0 || int(l) >= m.g.NumLinks() {
		return 0, fmt.Errorf("manager: no such link %d", l)
	}
	if !m.net.Failed(l) {
		return 0, fmt.Errorf("manager: link %d is not failed", l)
	}
	m.net.SetFailed(l, false)
	// Re-protection only ever shrinks the unprotected population, so once
	// as many unprotected connections as there were have been visited the
	// rest of the alive list holds none.
	left := m.unprotected
	for _, s := range m.alive {
		if left == 0 {
			break
		}
		if m.slots[s].conn.HasBackup {
			continue
		}
		left--
		ok, err := m.tryReprotect(s)
		if err != nil {
			return restored, err
		}
		if ok {
			restored++
		}
	}
	return restored, nil
}

// tryReestablish attempts to rebuild the failed connection in slot s from
// scratch (reactive-recovery mode): discover an admissible route avoiding
// failed links, reserve the minimum, and continue the same connection on
// the new route at its minimum level. The caller has already released the
// old primary. The bool reports success; the error reports corruption.
func (m *Manager) tryReestablish(s int32) (bool, error) {
	c := m.slots[s].conn
	cands, err := m.discoverRoutes(c.Src, c.Dst, c.Spec)
	if err != nil {
		return false, nil
	}
	newPrimary := cands[0].Path
	w := &m.work
	w.route = newPrimary.AppendDirLinks(w.route[:0], m.g)
	if err := m.net.ReservePrimary(c.ID, s, w.route, c.Spec.Min); err != nil {
		// The headroom seen by discovery may be borrowed as grants;
		// squeeze the route's primaries to their minima and retry once.
		for _, d := range w.route {
			for _, r := range m.net.PrimariesOn(d) {
				if err := m.squeezeToMin(r.Slot); err != nil {
					return false, err
				}
			}
		}
		if err := m.net.ReservePrimary(c.ID, s, w.route, c.Spec.Min); err != nil {
			return false, nil
		}
	}
	c.Primary = newPrimary.Clone() // the flood's routes are its scratch's
	m.cacheDirs(s)
	if err := m.setLevel(s, 0); err != nil {
		return false, err
	}
	return true, nil
}

// tryReprotect attempts to establish a backup for the unprotected
// connection in slot s. Best-effort: the bool reports success; the error
// reports corruption.
func (m *Manager) tryReprotect(s int32) (bool, error) {
	c := m.slots[s].conn
	if c.HasBackup || !c.Alive() || m.cfg.ReactiveRecovery {
		return false, nil
	}
	p, shared, err := m.route.BackupRoute(m.g, c.Primary, m.linkUp)
	if err != nil {
		return false, nil
	}
	if err := m.net.ReserveBackup(c.ID, s, p, c.Primary.Links, c.Spec.Min); err != nil {
		return false, nil
	}
	if err := c.AttachBackup(p, shared); err != nil {
		return false, wrapViolation(err, "attach reprotect backup for conn %d", c.ID)
	}
	m.unprotected--
	if m.unprotected < 0 {
		return false, violationf("negative unprotected count")
	}
	return true, nil
}
