package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTierDOT writes a transit-stub topology as DOT, as `topogen -kind tier
// -format dot -o net.dot -metrics` does.
func TestTierDOT(t *testing.T) {
	out := filepath.Join(t.TempDir(), "net.dot")
	os.Args = []string{"topogen", "-kind", "tier", "-seed", "2", "-format", "dot", "-o", out, "-metrics"}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "--") {
		t.Fatalf("no edges in the DOT output:\n%s", b)
	}
}
