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
// about the slot table and the ledger and requires the audit to name it.
// Every ledger injection goes through the ledger's own API, so the ledger
// stays self-consistent and only its recomputation from the alive
// connections — each entered on exactly its routes' directed links, under
// its own slot, at its level's bandwidth — tells it apart. The untouched
// manager passes.
func TestAuditCanFail(t *testing.T) {
	upper := routing.Path{Nodes: []topology.NodeID{0, 1, 2, 5}, Links: []topology.LinkID{0, 1, 2}}
	chord := routing.Path{Nodes: []topology.NodeID{3, 4}, Links: []topology.LinkID{4}}
	cases := []struct {
		clause  string
		corrupt func(t *testing.T, m *Manager, s int32)
		want    string
	}{
		{"missing from a link of its primary", func(t *testing.T, m *Manager, s int32) {
			c := m.slots[s].conn
			mustNil(t, m.net.ReleasePrimary(s, m.slots[s].dirs[:1], c.Bandwidth(), c.Spec.Min))
		}, "primary of slot 0 not entered"},
		{"entered on a link off its primary", func(t *testing.T, m *Manager, s int32) {
			mustNil(t, m.net.ReservePrimary(s, chord.DirLinks(m.g), 100))
		}, "1 primaries entered, 0 primary routes cross it"},
		{"a dead connection still holds a reservation", func(t *testing.T, m *Manager, s int32) {
			mustNil(t, m.net.ReservePrimary(deadSlot(t, m), chord.DirLinks(m.g), 100))
		}, "1 primaries entered, 0 primary routes cross it"},
		{"entered under another slot", func(t *testing.T, m *Manager, s int32) {
			sl := &m.slots[s]
			min, bw := sl.conn.Spec.Min, sl.conn.Bandwidth()
			mustNil(t, m.net.ReleasePrimary(s, sl.dirs, bw, min))
			mustNil(t, m.net.ReservePrimary(s+1, sl.dirs, min))
			mustNil(t, m.net.AdjustPrimary(sl.dirs, min, bw))
		}, "primary of slot 0 not entered"},
		{"grant disagrees with the level", func(t *testing.T, m *Manager, s int32) {
			sl := &m.slots[s]
			mustNil(t, m.net.AdjustPrimary(sl.dirs, sl.conn.Bandwidth(), sl.conn.Spec.Min))
		}, "cached grantSum"},
		{"slot level mirror stale", func(t *testing.T, m *Manager, s int32) {
			m.slots[s].held++
		}, "slot level mirror"},
		{"cached directed links stale", func(t *testing.T, m *Manager, s int32) {
			m.slots[s].dirs[0]++
		}, "cached directed links"},
		{"backup missing from a link of its route", func(t *testing.T, m *Manager, s int32) {
			c := m.slots[s].conn
			mustNil(t, m.net.ReleaseBackup(s, c.Backup.DirLinks(m.g)[:1], c.Primary.Links, c.Spec.Min))
		}, "backup of slot 0 not entered"},
		{"backup entered under another slot", func(t *testing.T, m *Manager, s int32) {
			c := m.slots[s].conn
			backup := c.Backup.DirLinks(m.g)
			mustNil(t, m.net.ReleaseBackup(s, backup, c.Primary.Links, c.Spec.Min))
			mustNil(t, m.net.RestoreBackup(s+1, backup, c.Primary.Links, c.Spec.Min))
		}, "backup of slot 0 not entered"},
		{"a backup nobody owns", func(t *testing.T, m *Manager, s int32) {
			mustNil(t, m.net.ReserveBackup(deadSlot(t, m), chord.DirLinks(m.g), upper.Links, 100))
		}, "2 backups entered, 1 backup routes cross it"},
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
