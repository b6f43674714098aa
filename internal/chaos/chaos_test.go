package chaos

import (
	"errors"
	"reflect"
	"testing"

	"drqos/internal/journal"
	"drqos/internal/manager"
)

// TestEpisodesClean runs a spread of seeded episodes and expects the
// audited manager to survive every interleaving. This is the standing
// regression net: any future ledger bug that random traffic can reach
// shows up here as a concrete, shrinkable trace.
func TestEpisodesClean(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		trace, fail, err := Run(Config{Seed: seed, Events: 150})
		if err != nil {
			t.Fatalf("seed %d: setup: %v", seed, err)
		}
		if fail != nil {
			min, mf, serr := Shrink(Config{Seed: seed, Events: 150}, trace)
			if serr != nil {
				t.Fatalf("seed %d: %v (shrink failed: %v)", seed, fail, serr)
			}
			t.Fatalf("seed %d: %v\nshrunk reproducer (%d events, %v):\n%s",
				seed, fail, len(min), mf.Err, FormatTrace(min))
		}
	}
}

// TestDeterminism: identical configs must generate identical traces, or
// recorded reproducers are worthless.
func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Events: 120}
	t1, f1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, f2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("same seed produced different traces:\n%s\nvs\n%s", FormatTrace(t1), FormatTrace(t2))
	}
	if (f1 == nil) != (f2 == nil) {
		t.Fatalf("same seed disagreed on failure: %v vs %v", f1, f2)
	}
}

// TestReplayToleratesUsageErrors: a replayed trace may reference
// connections and link states that no longer exist after shrinking;
// those events must degrade to no-ops, not abort the replay.
func TestReplayToleratesUsageErrors(t *testing.T) {
	fail, err := Replay(Config{Seed: 1}, []journal.Event{
		{Kind: journal.KindTerminate, Conn: 999}, // never established
		{Kind: journal.KindRepairLink, Link: 0},  // not failed
		{Kind: journal.KindFailLink, Link: -1},   // out of range
		{Kind: journal.KindFailLink, Link: 1 << 20},
		manager.EstablishEvent(0, 1, elastic),
		{Kind: journal.KindFailLink, Link: 0},
		{Kind: journal.KindFailLink, Link: 0}, // double fault
	})
	if err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatalf("usage-error trace should replay clean, got: %v", fail)
	}
}

// TestShrinkInjectedBug plants a deliberate corruption (the aggregate
// bandwidth ledger drifts by one on every link failure) and requires the
// harness to (a) catch it at the offending event, and (b) shrink the
// trace to a tiny reproducer — the ISSUE acceptance bound is ≤10 events.
func TestShrinkInjectedBug(t *testing.T) {
	cfg := Config{
		Seed:   7,
		Events: 200,
		Hook: func(ev journal.Event, m *manager.Manager) {
			if ev.Kind == journal.KindFailLink {
				m.CorruptAggregatesForTesting()
			}
		},
	}
	trace, fail, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fail == nil {
		t.Fatal("injected corruption was not detected in 200 events")
	}
	if !manager.IsInvariantViolation(fail.Err) {
		t.Fatalf("want InvariantViolation, got %v", fail.Err)
	}
	if fail.Trace[fail.Index].Kind != journal.KindFailLink {
		t.Fatalf("violation should surface at the corrupting fail_link event, got %s", fail.Trace[fail.Index])
	}

	min, mf, err := Shrink(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(min) > 10 {
		t.Fatalf("shrunk reproducer has %d events, want <= 10:\n%s", len(min), FormatTrace(min))
	}
	if !manager.IsInvariantViolation(mf.Err) {
		t.Fatalf("shrunk failure lost the violation: %v", mf.Err)
	}
	// The minimized trace must itself be a working reproducer.
	again, err := Replay(cfg, min)
	if err != nil {
		t.Fatal(err)
	}
	if again == nil {
		t.Fatal("shrunk trace no longer reproduces the failure")
	}
	t.Logf("shrunk to %d event(s):\n%s", len(min), FormatTrace(min))
}

// TestShrinkRejectsHealthyTrace: shrinking a passing trace is an error,
// not a silent empty result.
func TestShrinkRejectsHealthyTrace(t *testing.T) {
	trace, fail, err := Run(Config{Seed: 3, Events: 50})
	if err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatalf("seed 3 unexpectedly failed: %v", fail)
	}
	if _, _, err := Shrink(Config{Seed: 3, Events: 50}, trace); err == nil {
		t.Fatal("Shrink accepted a non-failing trace")
	}
}

// TestFormatTrace: the rendering of a trace is the Go literal that built it
// — the one below, which compiles — and that literal replays.
func TestFormatTrace(t *testing.T) {
	trace := []journal.Event{
		{Kind: journal.KindEstablish, Src: 3, Dst: 7, MinKbps: 100, MaxKbps: 500, IncKbps: 50, Utility: 1},
		{Kind: journal.KindTerminate, Conn: 1},
		{Kind: journal.KindFailLink, Link: 5},
		{Kind: journal.KindRepairLink, Link: 5},
	}
	want := `[]journal.Event{
	{Kind: journal.KindEstablish, Src: 3, Dst: 7, MinKbps: 100, MaxKbps: 500, IncKbps: 50, Utility: 1},
	{Kind: journal.KindTerminate, Conn: 1},
	{Kind: journal.KindFailLink, Link: 5},
	{Kind: journal.KindRepairLink, Link: 5},
}`
	if got := FormatTrace(trace); got != want {
		t.Fatalf("FormatTrace:\n%s\nwant:\n%s", got, want)
	}
	if fail, err := Replay(Config{Seed: 1}, trace); err != nil || fail != nil {
		t.Fatalf("the literal does not replay clean: %v %v", fail, err)
	}
}

// TestFailureUnwrap: errors.As must reach the InvariantViolation through
// the Failure wrapper, so callers can route on it.
func TestFailureUnwrap(t *testing.T) {
	f := &Failure{
		Index: 0,
		Trace: []journal.Event{{Kind: journal.KindFailLink, Link: 1}},
		Err:   &manager.InvariantViolation{Op: "fail_link", Detail: "synthetic"},
	}
	if !manager.IsInvariantViolation(f) {
		t.Fatal("Failure did not unwrap to InvariantViolation")
	}
	var iv *manager.InvariantViolation
	if !errors.As(f, &iv) {
		t.Fatal("errors.As failed through Failure")
	}
}
