package manager

import (
	"errors"
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
	chord := routing.Path{Nodes: []topology.NodeID{3, 4}, Links: []topology.LinkID{4}}
	cases := []struct {
		clause  string
		corrupt func(t *testing.T, m *Manager, s int32)
		want    string
	}{
		{"missing from a link of its primary", func(t *testing.T, m *Manager, s int32) {
			mustNil(t, m.net.ReleasePrimary(m.slotID[s], m.slots[s].dirs[:1]))
		}, "not entered on directed link"},
		{"entered on a link off its primary", func(t *testing.T, m *Manager, s int32) {
			mustNil(t, m.net.ReservePrimary(m.slotID[s], s, chord.DirLinks(m.g), 100))
		}, "primary entries, alive routes have"},
		{"a dead connection still holds a reservation", func(t *testing.T, m *Manager, s int32) {
			mustNil(t, m.net.ReservePrimary(9999, s+7, chord.DirLinks(m.g), 100))
		}, "primary entries, alive routes have"},
		{"entered under another slot", func(t *testing.T, m *Manager, s int32) {
			sl, id := &m.slots[s], m.slotID[s]
			mustNil(t, m.net.ReleasePrimary(id, sl.dirs))
			mustNil(t, m.net.ReservePrimary(id, s+1, sl.dirs, sl.conn.Spec.Min))
			mustNil(t, m.net.AdjustPrimary(id, sl.dirs, sl.conn.Bandwidth()))
		}, "under slot"},
		{"grant disagrees with the level", func(t *testing.T, m *Manager, s int32) {
			sl := &m.slots[s]
			mustNil(t, m.net.AdjustPrimary(m.slotID[s], sl.dirs, sl.conn.Spec.Min))
		}, "level says"},
		{"slot level mirror stale", func(t *testing.T, m *Manager, s int32) {
			m.slots[s].held++
		}, "slot level mirror"},
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
		{"slot ID stale", func(t *testing.T, m *Manager, s int32) {
			m.slotID[s]++
		}, "which records ID"},
		{"ID index points elsewhere", func(t *testing.T, m *Manager, s int32) {
			m.conns[m.slots[s].conn.ID] = s + 1
		}, "ID index says"},
		{"a dead slot still holds a connection", func(t *testing.T, m *Manager, s int32) {
			m.slots[deadSlot(t, m)].conn = m.slots[s].conn
		}, "dead slot"},
		{"scratch level off the ledger at rest", func(t *testing.T, m *Manager, s int32) {
			m.slots[s].level++
		}, "scratch level"},
		{"ceiling set stale", func(t *testing.T, m *Manager, s int32) {
			if m.full.Has(s) {
				m.full.Remove(s)
			} else {
				m.full.Add(s)
			}
		}, "ceiling set says"},
		{"a dead slot in the ceiling set", func(t *testing.T, m *Manager, s int32) {
			m.full.Add(deadSlot(t, m))
		}, "ceiling set holds"},
		{"least increment above a live one", func(t *testing.T, m *Manager, s int32) {
			m.minInc = m.slots[s].inc + 1
		}, "least increment"},
	}
	for _, tc := range cases {
		t.Run(tc.clause, func(t *testing.T) {
			m := mustMgr(t, diamond(t), Config{Capacity: 10000, RequireBackup: true})
			rep, err := m.Establish(0, 5, qos.DefaultSpec())
			mustNil(t, err)
			// A second connection, terminated again, leaves one dead slot.
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
			if !errors.As(err, new(*InvariantViolation)) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit said %v, want a violation containing %q", err, tc.want)
			}
		})
	}
}

// deadSlot returns a slot of m's table that holds no connection.
func deadSlot(t *testing.T, m *Manager) int32 {
	t.Helper()
	for s := range m.slots {
		if m.slots[s].conn == nil {
			return int32(s)
		}
	}
	t.Fatal("no dead slot in the table")
	return -1
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
