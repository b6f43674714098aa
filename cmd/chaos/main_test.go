package main

import (
	"os"
	"testing"
)

// TestCrashEpisode runs one journaled crash-restart episode as
// `chaos -episode crash -episodes 1` does; main exits the test binary with
// status 1 if the replay oracle finds the episode unclean.
func TestCrashEpisode(t *testing.T) {
	os.Args = []string{"chaos", "-episode", "crash", "-episodes", "1", "-q"}
	main()
}
