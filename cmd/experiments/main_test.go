package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFig3Quick regenerates one figure as `experiments -run fig3 -scale
// quick -dat DIR` does, and checks that its data file and plots.gp land in
// DIR.
func TestFig3Quick(t *testing.T) {
	dir := t.TempDir()
	os.Args = []string{"experiments", "-run", "fig3", "-scale", "quick", "-dat", dir}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig3.dat", "plots.gp"} {
		if info, err := os.Stat(filepath.Join(dir, name)); err != nil || info.Size() == 0 {
			t.Errorf("%s not written: %v", name, err)
		}
	}
}
