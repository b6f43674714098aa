package experiments

import (
	"reflect"
	"testing"
)

// The parallel sweep runner must be invisible in the results: every data
// point derives its randomness from Config.Seed and its own sweep
// coordinates, so fanning points over any number of workers has to produce
// results bit-identical to the sequential (Workers=1) path. These tests run
// the two richest experiments at several worker counts and compare the
// typed results and the printed bytes: the text table, and the .dat, whose
// full-precision cells show what rounding to %.1f would hide. `go test
// -race` additionally checks the pool itself for data races.

func TestFig2DeterministicAcrossWorkers(t *testing.T) {
	base, err := Fig2(Config{Seed: 21, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseText, baseDat := printTable(t, base.Table())
	for _, workers := range []int{2, 8} {
		got, err := Fig2(Config{Seed: 21, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: Fig2Result differs from sequential:\n%+v\nvs\n%+v", workers, got, base)
		}
		text, dat := printTable(t, got.Table())
		if text != baseText || dat != baseDat {
			t.Fatalf("workers=%d: printed bytes differ:\n%s%s\nvs\n%s%s", workers, text, dat, baseText, baseDat)
		}
	}
}

func TestTable1DeterministicAcrossWorkers(t *testing.T) {
	base, err := Table1(Config{Seed: 22, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseText, baseDat := printTable(t, base.Table())
	workerCounts := []int{8}
	if !testing.Short() {
		workerCounts = []int{2, 8}
	}
	for _, workers := range workerCounts {
		got, err := Table1(Config{Seed: 22, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: Table1Result differs from sequential:\n%+v\nvs\n%+v", workers, got, base)
		}
		text, dat := printTable(t, got.Table())
		if text != baseText || dat != baseDat {
			t.Fatalf("workers=%d: printed bytes differ:\n%s%s\nvs\n%s%s", workers, text, dat, baseText, baseDat)
		}
	}
}
