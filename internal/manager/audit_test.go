package manager

import (
	"strings"
	"testing"

	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// TestAuditCanFail injects one corruption per clause CheckInvariants states
// about the slot table and the link lists and requires the audit to name
// it. Every injection goes through the ledger's own API or leaves its sums
// honest, so the network-level audit passes and only the manager's clause —
// each connection entered on exactly its routes' directed links, under its
// own slot — is what fails. The untouched manager passes.
func TestAuditCanFail(t *testing.T) {
	upper := routing.Path{Nodes: []topology.NodeID{0, 1, 2, 5}, Links: []topology.LinkID{0, 1, 2}}
	firstHop := routing.Path{Nodes: upper.Nodes[:2], Links: upper.Links[:1]}
	chord := routing.Path{Nodes: []topology.NodeID{3, 4}, Links: []topology.LinkID{4}}
	cases := []struct {
		clause  string
		corrupt func(t *testing.T, m *Manager, s int32)
		want    string
	}{
		{"missing from a link of its primary", func(t *testing.T, m *Manager, s int32) {
			mustNil(t, m.net.ReleasePrimary(m.slots[s].conn.ID, firstHop))
		}, "not entered on directed link"},
		{"entered on a link off its primary", func(t *testing.T, m *Manager, s int32) {
			mustNil(t, m.net.ReservePrimary(m.slots[s].conn.ID, s, chord, 100))
		}, "primary entries, alive routes have"},
		{"a dead connection still holds a reservation", func(t *testing.T, m *Manager, s int32) {
			mustNil(t, m.net.ReservePrimary(9999, s+7, chord, 100))
		}, "primary entries, alive routes have"},
		{"entered under another slot", func(t *testing.T, m *Manager, s int32) {
			c := m.slots[s].conn
			mustNil(t, m.net.ReleasePrimary(c.ID, c.Primary))
			mustNil(t, m.net.ReservePrimary(c.ID, s+1, c.Primary, c.Spec.Min))
			mustNil(t, m.net.AdjustPrimary(c.ID, c.Primary, c.Bandwidth()))
		}, "under slot"},
		{"grant disagrees with the level", func(t *testing.T, m *Manager, s int32) {
			c := m.slots[s].conn
			mustNil(t, m.net.AdjustPrimary(c.ID, c.Primary, c.Spec.Min))
		}, "level says"},
		{"cached directed links stale", func(t *testing.T, m *Manager, s int32) {
			m.slots[s].dirs[0]++
		}, "cached directed links"},
		{"backup missing from a link of its route", func(t *testing.T, m *Manager, s int32) {
			b := m.slots[s].conn.Backup
			mustNil(t, m.net.ReleaseBackup(m.slots[s].conn.ID, routing.Path{Nodes: b.Nodes[:2], Links: b.Links[:1]}))
		}, "backup not entered"},
		{"backup entered under another slot", func(t *testing.T, m *Manager, s int32) {
			c := m.slots[s].conn
			mustNil(t, m.net.ReleaseBackup(c.ID, c.Backup))
			mustNil(t, m.net.RestoreBackup(c.ID, s+1, c.Backup, c.Primary.Links, c.Spec.Min))
		}, "backup entered on directed link"},
		{"a backup nobody owns", func(t *testing.T, m *Manager, s int32) {
			mustNil(t, m.net.ReserveBackup(9999, 0, chord, upper.Links, 100))
		}, "backup entries, alive backup routes have"},
		{"ID index points elsewhere", func(t *testing.T, m *Manager, s int32) {
			m.conns[m.slots[s].conn.ID] = s + 1
		}, "ID index says"},
		{"a slot neither alive nor free", func(t *testing.T, m *Manager, s int32) {
			m.slots = append(m.slots, connSlot{})
		}, "slots hold"},
		{"a free slot still holds a connection", func(t *testing.T, m *Manager, s int32) {
			m.slots[m.free[0]].conn = m.slots[s].conn
		}, "free slot"},
	}
	for _, tc := range cases {
		t.Run(tc.clause, func(t *testing.T) {
			m := mustMgr(t, diamond(t), Config{Capacity: 10000, RequireBackup: true})
			rep, err := m.Establish(0, 5, qos.DefaultSpec())
			mustNil(t, err)
			// A second connection, terminated again, leaves one free slot.
			other, err := m.Establish(0, 5, qos.DefaultSpec())
			mustNil(t, err)
			_, err = m.Terminate(other.Conn.ID)
			mustNil(t, err)
			if !rep.Conn.Primary.Equal(upper) || rep.Conn.Level == 0 {
				t.Fatalf("fixture drifted: primary %v at level %d", rep.Conn.Primary, rep.Conn.Level)
			}
			checkMgr(t, m)
			tc.corrupt(t, m, m.conns[rep.Conn.ID])
			if err := m.net.CheckInvariants(); err != nil {
				t.Fatalf("the injection must leave the ledger self-consistent: %v", err)
			}
			err = m.CheckInvariants()
			if !IsInvariantViolation(err) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit said %v, want a violation containing %q", err, tc.want)
			}
		})
	}
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
