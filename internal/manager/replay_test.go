package manager

import (
	"testing"

	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/topology"
)

// replaySeed reruns the quick-check workload for one seed with verbose
// failure reporting; used to diagnose and pin down regressions.
func replaySeed(t *testing.T, seed uint64) {
	t.Helper()
	src := rng.New(seed)
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 20, Alpha: 0.4, Beta: 0.25,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, Config{Capacity: 1000, RequireBackup: false})
	if err != nil {
		t.Fatal(err)
	}
	var failed []topology.LinkID
	for step := 0; step < 80; step++ {
		op := src.Intn(5)
		switch op {
		case 0, 1:
			a := topology.NodeID(src.Intn(g.NumNodes()))
			b := topology.NodeID(src.Intn(g.NumNodes()))
			if a == b {
				continue
			}
			_, _ = m.Establish(a, b, qos.DefaultSpec())
		case 2:
			ids := m.AliveIDs()
			if len(ids) == 0 {
				continue
			}
			if _, err := m.Terminate(ids[src.Intn(len(ids))]); err != nil {
				t.Fatalf("step %d: terminate: %v", step, err)
			}
		case 3:
			l := topology.LinkID(src.Intn(g.NumLinks()))
			if m.Network().Failed(l) {
				continue
			}
			if _, err := m.FailLink(l); err != nil {
				t.Fatalf("step %d: fail link %d: %v", step, l, err)
			}
			failed = append(failed, l)
		case 4:
			if len(failed) == 0 {
				continue
			}
			i := src.Intn(len(failed))
			if _, err := m.RepairLink(failed[i]); err != nil {
				t.Fatalf("step %d: repair link %d: %v", step, failed[i], err)
			}
			failed = append(failed[:i], failed[i+1:]...)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
	}
}

func TestReplayRegressionSeeds(t *testing.T) {
	for _, seed := range []uint64{0x5ce7897d7f01b72a, 0x82a2114c69edf045} {
		replaySeed(t, seed)
	}
}
