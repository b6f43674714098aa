package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestTraceWalkthrough runs README's simulate → measure → solve
// walkthrough: drsim -trace DIR journals a run, then drtrace -in DIR
// summarises the directory and solves the chain its measured tail gives.
func TestTraceWalkthrough(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run1")
	os.Args = []string{"drsim", "-nodes", "40", "-conns", "300", "-churn", "300", "-warmup", "50",
		"-gamma", "5e-4", "-no-require-backup", "-trace", dir}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "run", "drqos/cmd/drtrace",
		"-in", dir, "-buckets", "4", "-transient", "50").CombinedOutput()
	if err != nil {
		t.Fatalf("drtrace: %v\n%s", err, out)
	}
	for _, want := range []string{"snapshot: seq", "failure impact:", "paper model:", "restart model:", "transient 50:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("drtrace printed no %q:\n%s", want, out)
		}
	}
}
