package sim_test

import (
	"errors"
	"testing"

	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/sim"
	"drqos/internal/topology"
)

// TestSimJournalReplays: sim ≡ replay. A traced run with failures and
// repairs journals its events; rebuilding the journal the way a daemon boots
// reaches the simulator's final state, audit-clean, and stepping a fresh
// manager through it finds exactly the events the run counted.
func TestSimJournalReplays(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 100, Alpha: 0.33, Beta: 0.088, EnsureConnected: true,
	}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	mcfg := manager.Config{Capacity: 10000, RequireBackup: true}
	dir := t.TempDir()
	jnl, _, err := journal.Open(dir, journal.Options{FsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(g, sim.Config{
		Seed: 43, Spec: qos.DefaultSpec(), Manager: mcfg,
		Lambda: 0.001, Mu: 0.001, Gamma: 0.0005, RepairRate: 0.05,
		InitialConns: 100, ChurnEvents: 200, WarmupEvents: 50,
		Trace: jnl,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 || res.Repairs == 0 || res.Rejected == 0 {
		t.Fatalf("the run must fail, repair and reject to mean anything: %+v", res)
	}
	rec, err := journal.Read(dir)
	if err != nil {
		t.Fatal(err)
	}

	m, err := server.Rebuild(g, mcfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.ExportState().Fingerprint(), s.Manager().ExportState().Fingerprint(); got != want {
		t.Fatalf("replayed fingerprint %s, simulator ended at %s", got, want)
	}

	fresh, err := manager.New(g, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	var established, rejected, terminated, failures, repairs int64
	for _, ev := range rec.Events {
		_, err := fresh.Apply(ev)
		switch {
		case errors.Is(err, manager.ErrRejected):
			rejected++
		case err != nil:
			t.Fatalf("replay %s: %v", ev, err)
		case ev.Kind == journal.KindEstablish:
			established++
		case ev.Kind == journal.KindTerminate:
			terminated++
		case ev.Kind == journal.KindFailLink:
			failures++
		case ev.Kind == journal.KindRepairLink:
			repairs++
		}
	}
	if established != res.Established || rejected != res.Rejected || terminated != res.Terminated ||
		failures != res.Failures || repairs != res.Repairs {
		t.Fatalf("journal holds %d/%d/%d/%d/%d established/rejected/terminated/failures/repairs, the run counted %d/%d/%d/%d/%d",
			established, rejected, terminated, failures, repairs,
			res.Established, res.Rejected, res.Terminated, res.Failures, res.Repairs)
	}
}
