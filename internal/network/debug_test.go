package network

import (
	"testing"

	"drqos/internal/channel"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// TestDebugSeed replays the quick-check scenario for one seed with verbose
// failure reporting. Kept as a regression test for the seed that first
// exposed an invariant break.
func TestDebugSeed(t *testing.T) {
	seed := uint64(0x876409b776027228)
	src := rng.New(seed)
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 12, Alpha: 0.5, Beta: 0.4, EnsureConnected: true,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(g, 500)
	if err != nil {
		t.Fatal(err)
	}
	type live struct {
		route  routing.Path
		backup routing.Path
		hasB   bool
		grant  qos.Kbps
	}
	conns := map[channel.ConnID]*live{}
	nextID := channel.ConnID(1)
	for step := 0; step < 120; step++ {
		op := src.Intn(4)
		switch op {
		case 0:
			a := topology.NodeID(src.Intn(g.NumNodes()))
			b := topology.NodeID(src.Intn(g.NumNodes()))
			if a == b {
				continue
			}
			p, err := routing.ShortestHops(g, a, b, nil)
			if err != nil {
				continue
			}
			if n.ReservePrimary(nextID, 0, p, 100) != nil {
				continue
			}
			c := &live{route: p, grant: 100}
			if bk, _, err := routing.BackupRoute(g, p, nil); err == nil {
				if n.ReserveBackup(nextID, bk, p.Links, 100) == nil {
					c.backup, c.hasB = bk, true
				}
			}
			conns[nextID] = c
			nextID++
		case 1:
			for id, c := range conns {
				ng := qos.Kbps(100 + 50*src.Intn(9))
				if n.AdjustPrimary(id, c.route, ng) == nil {
					c.grant = ng
				}
				break
			}
		case 2:
			for id, c := range conns {
				if err := n.ReleasePrimary(id, c.route); err != nil {
					t.Fatalf("step %d: release primary %d: %v", step, id, err)
				}
				if c.hasB {
					if err := n.ReleaseBackup(id, c.backup); err != nil {
						t.Fatalf("step %d: release backup %d: %v", step, id, err)
					}
				}
				delete(conns, id)
				break
			}
		case 3:
			for id, c := range conns {
				if !c.hasB {
					break
				}
				for _, d := range c.backup.DirLinks(g) {
					for _, r := range n.PrimariesOn(d) {
						if pc, ok := conns[r.ID]; ok {
							if n.AdjustPrimary(r.ID, pc.route, 100) == nil {
								pc.grant = 100
							}
						}
					}
				}
				if err := n.ReleasePrimary(id, c.route); err != nil {
					t.Fatalf("step %d: pre-activation release %d: %v", step, id, err)
				}
				if err := n.ActivateBackup(id, 0, c.backup); err != nil {
					if err := n.ReleaseBackup(id, c.backup); err != nil {
						t.Fatalf("step %d: cleanup backup %d: %v", step, id, err)
					}
					delete(conns, id)
					break
				}
				c.route = c.backup
				c.backup = routing.Path{}
				c.hasB = false
				c.grant = 100
				break
			}
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
	}
}
