package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCrashEpisode runs one journaled crash-restart episode as
// `chaos -episode crash -episodes 1` does; a non-zero status means the
// replay oracle found the episode unclean.
func TestCrashEpisode(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-episode", "crash", "-episodes", "1", "-q"}, &out, &errs); code != 0 {
		t.Fatalf("status %d: %s", code, errs.String())
	}
	if want := "chaos: 1 episode(s) clean\n"; out.String() != want {
		t.Errorf("stdout %q, want %q", out.String(), want)
	}
}

// TestRefusals: a command line that would run nothing, or names no row,
// exits 2 before any episode runs.
func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-episodes", "0"}, "need at least 1"},
		{[]string{"-episodes", "-3"}, "need at least 1"},
		{[]string{"-episode", "nosuch"}, `no episode or family "nosuch"`},
	} {
		var out, errs bytes.Buffer
		if code := run(tc.args, &out, &errs); code != 2 {
			t.Errorf("%v: status %d, want 2", tc.args, code)
		}
		if !strings.Contains(errs.String(), tc.want) {
			t.Errorf("%v: stderr %q, want it to say %q", tc.args, errs.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: stdout %q, want nothing", tc.args, out.String())
		}
	}
}
