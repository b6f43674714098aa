package p

import "testing"

func TestTestedOnly(t *testing.T) {
	if TestedOnly() != 1 {
		t.Fatal("TestedOnly")
	}
}

func TestOptions(t *testing.T) {
	if o := (Options{TestSet: 1}); o.Unset != 0 {
		t.Fatal("Options")
	}
}
