package main

import (
	"os"
	"testing"
)

// TestFig3Quick regenerates one figure as `experiments -run fig3 -scale
// quick` does.
func TestFig3Quick(t *testing.T) {
	os.Args = []string{"experiments", "-run", "fig3", "-scale", "quick"}
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
