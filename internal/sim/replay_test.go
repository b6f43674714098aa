package sim_test

import (
	"errors"
	"math"
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
// repairs journals its events and a snapshot where measurement starts;
// rebuilding the journal the way a daemon boots reaches the simulator's
// final state, audit-clean, and stepping the snapshot's manager through the
// tail finds exactly the events the run counted and measured.
func TestSimJournalReplays(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 100, Alpha: 0.33, Beta: 0.088,
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

	m, _, err := server.Rebuild(g, mcfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.ExportState().Fingerprint(), s.ManagerForTesting().ExportState().Fingerprint(); got != want {
		t.Fatalf("replayed fingerprint %s, simulator ended at %s", got, want)
	}

	// The tail starts at the snapshot measurement started at: the
	// snapshot's counters plus the tail's records are the run's admissions,
	// and the tail's terminations and failures are the ones the run
	// measured its rates from.
	if rec.SnapshotHeader == nil {
		t.Fatal("no snapshot where measurement starts")
	}
	st, err := manager.UnmarshalState(rec.SnapshotBody)
	if err != nil {
		t.Fatal(err)
	}
	at, err := manager.Restore(g, mcfg, st)
	if err != nil {
		t.Fatal(err)
	}
	established, rejected := at.SnapshotHeader().Requests-at.SnapshotHeader().Rejects, at.SnapshotHeader().Rejects
	var terminated, failures int64
	for _, ev := range rec.Events {
		_, err := at.Apply(ev)
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
		}
	}
	measured := func(rate float64) int64 { return int64(math.Round(rate * res.Duration)) }
	if established != res.Established || rejected != res.Rejected ||
		terminated != measured(res.Model.Mu) || failures != measured(res.Model.Gamma) {
		t.Fatalf("snapshot + tail hold %d/%d established/rejected and the tail %d/%d terminated/failures; the run counted %d/%d and measured %d/%d",
			established, rejected, terminated, failures,
			res.Established, res.Rejected, measured(res.Model.Mu), measured(res.Model.Gamma))
	}
}
