package manager

import (
	"fmt"
	"slices"
	"testing"

	"drqos/internal/network"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/topology"
)

// TestSlotMirrorsLevel churns the benchmark daemon's population — 2 000
// standing connections on a 100-node Waxman graph at the paper's capacity —
// through arrivals, terminations and link failures, with backups activated
// in one row and failed connections re-established reactively in the other,
// then round-trips the state through Restore. After every phase each alive
// slot mirrors its connection's level, and plan over the whole population
// loads exactly the ledger's headroom on every link a candidate crosses.
func TestSlotMirrorsLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2 000-connection population")
	}
	const standing = 2000
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 100, Alpha: 0.33, Beta: 0.1176,
	}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Capacity: 10000, RequireBackup: true},
		{Capacity: 10000, ReactiveRecovery: true},
	} {
		t.Run(fmt.Sprintf("reactive=%v", cfg.ReactiveRecovery), func(t *testing.T) {
			m := mustMgr(t, g, cfg)
			src := rng.New(11)
			establish := func() {
				a := topology.NodeID(src.Intn(g.NumNodes()))
				b := topology.NodeID(src.Intn(g.NumNodes() - 1))
				if b >= a {
					b++
				}
				m.Establish(a, b, qos.DefaultSpec())
			}
			for tries := 0; m.AliveCount() < standing; tries++ {
				if tries > 20*standing {
					t.Fatalf("population stuck at %d of %d", m.AliveCount(), standing)
				}
				establish()
			}
			checkMirror(t, m)
			var moved int // victims activated or re-established
			for i := 0; i < 20; i++ {
				l := topology.LinkID(src.Intn(g.NumLinks()))
				rep, err := m.FailLink(l)
				if err != nil {
					t.Fatal(err)
				}
				moved += len(rep.Activated) + len(rep.Recovered)
				checkMirror(t, m)
				for j := 0; j < 10; j++ {
					establish()
					if _, err := m.Terminate(m.AliveIDAt(0)); err != nil {
						t.Fatal(err)
					}
				}
				checkMirror(t, m)
				if _, err := m.RepairLink(l); err != nil {
					t.Fatal(err)
				}
			}
			if moved == 0 {
				t.Fatal("no failure moved a victim onto a backup or a new route")
			}
			checkMgr(t, m)
			restored, err := Restore(g, m.Config(), m.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			checkMirror(t, restored)
		})
	}
}

// checkMirror requires every alive slot to hold its connection's level, at
// rest with its scratch level, and plan to load each candidate link's room
// at the ledger's FreeForGrowth: for a handful of candidates (the walking
// form) and for the whole population (one pass over the links), each plan
// disturbed by a squeeze and a filling before the next, as a refused
// arrival re-plans. The last plan leaves every scratch level back at its
// held level.
func checkMirror(t *testing.T, m *Manager) {
	t.Helper()
	atRest := func() {
		for _, s := range m.alive {
			if sl := &m.slots[s]; sl.held != sl.conn.Level || sl.level != sl.held {
				t.Fatalf("conn %d: slot holds level %d, scratch %d, connection %d", m.slotID[s], sl.held, sl.level, sl.conn.Level)
			}
		}
	}
	atRest()
	m.beginEvent()
	for _, cands := range [][]int32{m.alive[:5], m.alive} {
		var set network.SlotSet
		set.Reset(len(m.slots))
		for _, s := range cands {
			set.Add(s)
		}
		for i := 0; i < 2; i++ {
			m.plan(set, -1)
			if walk := len(cands) == 5; m.work.walk != walk {
				t.Fatalf("plan of %d candidates walked %v", len(cands), m.work.walk)
			}
			for _, s := range cands {
				for _, d := range m.slots[s].dirs {
					if got, want := m.work.room[d], m.net.FreeForGrowth(d); got != want {
						t.Fatalf("plan of %d: room on directed link %d is %v, ledger says %v", len(cands), d, got, want)
					}
				}
			}
			if i == 0 {
				m.squeezeInPlan(cands[:5])
				m.fill(set, cands[:5], -1)
			}
		}
	}
	atRest()
}

// TestRenumberKeepsEverySlotItsOwn empties more than half of the slot table
// and requires the next arrival to close the gaps first: the table then
// holds exactly the live connections, still in ID order, and every slot the
// ledger records on a primary or a backup, and every link set, names its
// own connection. Events keep running on the renumbered table.
func TestRenumberKeepsEverySlotItsOwn(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{Nodes: 30, Alpha: 0.5, Beta: 0.2}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	m := mustMgr(t, g, Config{Capacity: 10000, RequireBackup: true})
	src := rng.New(9)
	establish := func() bool {
		a := topology.NodeID(src.Intn(g.NumNodes()))
		b := topology.NodeID(src.Intn(g.NumNodes() - 1))
		if b >= a {
			b++
		}
		_, err := m.Establish(a, b, qos.DefaultSpec())
		return err == nil
	}
	for m.AliveCount() < 80 {
		establish()
	}
	for i := 0; m.AliveCount() > 30; i++ {
		if _, err := m.Terminate(m.AliveIDAt(i % m.AliveCount())); err != nil {
			t.Fatal(err)
		}
	}
	if dead := len(m.slots) - m.AliveCount(); 2*dead < len(m.slots) {
		t.Fatalf("fixture: %d of %d slots dead, want half", dead, len(m.slots))
	}
	checkMgr(t, m)
	for !establish() {
	}
	if len(m.slots) != m.AliveCount() {
		t.Fatalf("after the arrival the table holds %d slots for %d connections", len(m.slots), m.AliveCount())
	}
	checkOwnSlots(t, m)
	for i := 0; i < 40; i++ {
		establish()
		if _, err := m.Terminate(m.AliveIDAt(src.Intn(m.AliveCount()))); err != nil {
			t.Fatal(err)
		}
	}
	checkOwnSlots(t, m)
}

// checkOwnSlots requires every live slot to sit in ID order and every slot
// a link's primary or backup set holds to be a live connection whose
// primary or backup crosses that link.
func checkOwnSlots(t *testing.T, m *Manager) {
	t.Helper()
	checkMgr(t, m)
	for i, s := range m.alive {
		if i > 0 && (m.alive[i-1] >= s || m.slotID[m.alive[i-1]] >= m.slotID[s]) {
			t.Fatalf("alive list out of slot or ID order at %d", i)
		}
	}
	for d := 0; d < m.g.NumDirLinks(); d++ {
		dl := topology.DirLinkID(d)
		for _, s := range m.net.SlotsOn(dl).AppendMembers(nil) {
			if c := m.slots[s].conn; c == nil || !slices.Contains(m.slots[s].dirs, dl) {
				t.Fatalf("directed link %d: primary recorded under slot %d, whose connection's primary does not cross it", d, s)
			}
		}
		for _, s := range m.net.BackupSlotsOn(dl).AppendMembers(nil) {
			if c := m.slots[s].conn; c == nil || !c.HasBackup || !slices.Contains(c.Backup.DirLinks(m.g), dl) {
				t.Fatalf("directed link %d: backup recorded under slot %d, whose connection's backup does not cross it", d, s)
			}
		}
	}
}
