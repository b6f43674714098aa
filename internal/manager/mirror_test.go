package manager

import (
	"fmt"
	"testing"

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
		Nodes: 100, Alpha: 0.33, Beta: 0.1176, EnsureConnected: true,
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

// checkMirror requires every alive slot to hold its connection's level, and
// plan to leave each candidate link's room at the ledger's FreeForGrowth:
// for a handful of candidates (read hop by hop) and for the whole
// population (one pass over the links), each plan disturbed by a squeeze and
// a filling before the next, as a refused arrival re-plans.
func checkMirror(t *testing.T, m *Manager) {
	t.Helper()
	for _, s := range m.alive {
		if sl := &m.slots[s]; sl.held != sl.conn.Level {
			t.Fatalf("conn %d: slot holds level %d, connection %d", sl.id, sl.held, sl.conn.Level)
		}
	}
	m.beginEvent()
	for _, cands := range [][]int32{m.alive[:5], m.alive, m.alive[len(m.alive)-5:]} {
		m.plan(cands)
		for _, s := range cands {
			for _, d := range m.slots[s].dirs {
				if got, want := m.work.room[d], m.net.FreeForGrowth(d); got != want {
					t.Fatalf("plan of %d: room on directed link %d is %v, ledger says %v", len(cands), d, got, want)
				}
			}
		}
		m.squeezeInPlan(cands)
		m.fill(cands)
	}
}
