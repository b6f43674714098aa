package main

import (
	"context"
	"strings"
	"testing"

	"drqos/internal/core"
	"drqos/internal/journal"
	"drqos/internal/qos"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// meta is the marker drsim and drserverd write for -nodes 40
// -no-require-backup: a tree-like topology where failures drop connections.
var meta = core.DataMeta{Kind: "waxman", Nodes: 40, Seed: 1, CapacityKbps: int64(core.PaperCapacity),
	Policy: "coefficient", Multiplex: true}

// TestSummarizeSimDir: over the directory drsim -trace writes, the counts
// and the failure impact are the run's own.
func TestSummarizeSimDir(t *testing.T) {
	dir := t.TempDir()
	jnl, err := core.OpenTrace(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Options{
		Seed: meta.Seed, Nodes: meta.Nodes, NoRequireBackup: true,
		Gamma: 0.0005, RepairRate: 0.01,
		InitialConns: 300, ChurnEvents: 300, WarmupEvents: 50,
		Trace: jnl,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sys.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	res := ev.Sim
	if res.Failures == 0 || res.Dropped == 0 {
		t.Fatalf("the run must drop connections on failures to mean anything: %+v", res)
	}

	s, err := summarize(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for kind, want := range map[string]int64{
		"establish": res.Established, "reject": res.Rejected, "terminate": res.Terminated,
		"fail_link": res.Failures, "repair_link": res.Repairs,
	} {
		if got := int64(s.counts[kind]); got != want {
			t.Errorf("%s: %d records, the run counted %d", kind, got, want)
		}
	}
	if int64(s.impact.N()) != res.Failures || int64(s.dropped) != res.Dropped {
		t.Errorf("failure impact over %d failures with %d dropped, the run had %d and %d",
			s.impact.N(), s.dropped, res.Failures, res.Dropped)
	}
	last := s.points[len(s.points)-1]
	if len(s.points) != 4 || last.alive != res.AliveAtEnd || last.avgBW != res.FinalAvgBandwidth {
		t.Errorf("trajectory %+v ends elsewhere than the run (alive %d, %.1f Kb/s)", s.points, res.AliveAtEnd, res.FinalAvgBandwidth)
	}
}

// TestSummarizeDaemonDir: over a daemon's directory holding a snapshot, the
// summary starts from the snapshot and covers only the tail after it.
func TestSummarizeDaemonDir(t *testing.T) {
	dir := t.TempDir()
	if err := core.CheckMeta(dir, meta); err != nil {
		t.Fatal(err)
	}
	sys, mcfg, err := meta.Build()
	if err != nil {
		t.Fatal(err)
	}
	jnl, rec, err := journal.Open(dir, journal.Options{FsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := server.Rebuild(sys.Graph(), mcfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewFromManager(sys.Graph(), m, server.Options{Journal: jnl, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 11; i++ {
		if _, err := srv.Establish(ctx, 0, topology.NodeID(1+i), qos.DefaultSpec()); err != nil {
			t.Fatalf("establish %d: %v", i, err)
		}
	}
	if _, err := srv.Terminate(ctx, 2); err != nil {
		t.Fatal(err)
	}
	st, err := srv.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := summarize(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.snapshotSeq != 8 || s.records != 4 || s.counts["establish"] != 3 || s.counts["terminate"] != 1 {
		t.Fatalf("want the 4-record tail after the snapshot at seq 8, got %+v", s)
	}
	if last := s.points[len(s.points)-1]; last.seq != 12 || last.alive != st.Alive {
		t.Fatalf("trajectory ends at %+v, the daemon at seq 12 with %d alive", last, st.Alive)
	}
}

// TestSummarizeRefusesShardedDir: a sharded directory is not one plane, and
// the refusal names the marker that says so.
func TestSummarizeRefusesShardedDir(t *testing.T) {
	dir := t.TempDir()
	sharded := meta
	sharded.Kind, sharded.Shards = "tier", 4
	if err := core.CheckMeta(dir, sharded); err != nil {
		t.Fatal(err)
	}
	if _, err := summarize(dir, 10); err == nil || !strings.Contains(err.Error(), "coordinator.json") {
		t.Fatalf("want a refusal naming coordinator.json, got %v", err)
	}
}
