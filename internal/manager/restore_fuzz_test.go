package manager_test

import (
	"testing"

	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/sim"
	"drqos/internal/topology"
)

// FuzzRestore: a snapshot body either is refused — by UnmarshalState or by
// Restore — or restores to a manager that passes CheckInvariants and whose
// re-exported state restores, through the codec, to the same fingerprint.
// There is no third outcome: no panic, no audit failure, no state that
// drifts on its second restore. The seeds are real snapshot bodies — a
// simulator's warm-up snapshot, as drsim -trace writes it, and its final
// state — and truncations of them.
func FuzzRestore(f *testing.F) {
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 30, Alpha: 0.33, Beta: 0.25,
	}, rng.New(1))
	if err != nil {
		f.Fatal(err)
	}
	cfg := manager.Config{Capacity: 10000, RequireBackup: true}
	dir := f.TempDir()
	jnl, _, err := journal.Open(dir, journal.Options{FsyncEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	s, err := sim.New(g, sim.Config{
		Seed: 1, Spec: qos.DefaultSpec(), Manager: cfg,
		Lambda: 0.001, Mu: 0.001, Gamma: 0.002, RepairRate: 0.01,
		InitialConns: 150, ChurnEvents: 80, WarmupEvents: 30,
		Trace: jnl,
	})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		f.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		f.Fatal(err)
	}
	rec, err := journal.Read(dir)
	if err != nil {
		f.Fatal(err)
	}
	if rec.SnapshotHeader == nil {
		f.Fatal("the traced run wrote no warm-up snapshot")
	}
	for _, body := range [][]byte{rec.SnapshotBody, s.ManagerForTesting().ExportState().MarshalBinary()} {
		st, err := manager.UnmarshalState(body)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := manager.Restore(g, cfg, st); err != nil {
			f.Fatalf("a real snapshot body is refused: %v", err)
		}
		f.Add(body)
		for _, n := range []int{0, 8, len(body) / 2, len(body) - 1} {
			f.Add(body[:n])
		}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := manager.UnmarshalState(body)
		if err != nil {
			return
		}
		m, err := manager.Restore(g, cfg, st)
		if err != nil {
			return
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("restored state fails audit: %v", err)
		}
		again, err := manager.UnmarshalState(m.ExportState().MarshalBinary())
		if err != nil {
			t.Fatalf("re-exported state does not decode: %v", err)
		}
		m2, err := manager.Restore(g, cfg, again)
		if err != nil {
			t.Fatalf("re-exported state refused: %v", err)
		}
		if got, want := m2.ExportState().Fingerprint(), m.ExportState().Fingerprint(); got != want {
			t.Fatalf("second restore at %s, first at %s", got, want)
		}
	})
}
