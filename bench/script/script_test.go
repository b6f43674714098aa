package script

import (
	"bytes"
	"testing"
)

func generate(t *testing.T, w Workload, seed int64) *Script {
	t.Helper()
	p, err := NewPlane(w)
	if err != nil {
		t.Fatal(err)
	}
	return p.Generate(seed, w.Ops(2))
}

func TestEqualSeedsGiveIdenticalScripts(t *testing.T) {
	for _, w := range Workloads() {
		a, b, c := generate(t, w, 7), generate(t, w, 7), generate(t, w, 8)
		if !bytes.Equal(a.Encode(), b.Encode()) {
			t.Errorf("%s: two scripts from seed 7 differ", w.Name)
		}
		if bytes.Equal(a.Encode(), c.Encode()) {
			t.Errorf("%s: seeds 7 and 8 give the same script", w.Name)
		}
	}
}

// The scripted population is stationary: every block of every client holds
// as many establishes as terminates, in the fixed mix, with each fail
// repaired faultGap slots later on the same link.
func TestMixIsStationary(t *testing.T) {
	for _, w := range Workloads() {
		sc := generate(t, w, 3)
		total := 0
		for c, ops := range sc.Run {
			if len(ops) == 0 || len(ops)%blockOps != 0 {
				t.Fatalf("%s: client %d has %d ops, not whole blocks", w.Name, c, len(ops))
			}
			total += len(ops)
			for b := 0; b < len(ops); b += blockOps {
				var count [NumKinds]int
				for i, op := range ops[b : b+blockOps] {
					count[op.Kind]++
					if op.Kind == Fail {
						if r := ops[b+i+faultGap]; r.Kind != Repair || r.Link != op.Link {
							t.Errorf("%s: fail of link %d at %d is not repaired %d slots later", w.Name, op.Link, b+i, faultGap)
						}
					}
				}
				want := [NumKinds]int{blockEstablish, blockTerminate, blockReadStats, blockReadPoint, 1, 1}
				if count != want {
					t.Errorf("%s: client %d block %d has mix %v, want %v", w.Name, c, b/blockOps, count, want)
				}
			}
		}
		if total != w.Ops(2) {
			t.Errorf("%s: script has %d ops, Ops(2) says %d", w.Name, total, w.Ops(2))
		}
	}
}

func TestPairsFollowTheWorkload(t *testing.T) {
	for _, w := range Workloads() {
		p, err := NewPlane(w)
		if err != nil {
			t.Fatal(err)
		}
		sc := p.Generate(5, w.Ops(2))
		cross, establishes := 0, 0
		for _, ops := range [][]Op{sc.Warm[0], sc.Warm[1], sc.Run[0], sc.Run[1]} {
			for _, op := range ops {
				if op.Kind != Establish {
					continue
				}
				establishes++
				if op.Src == op.Dst {
					t.Fatalf("%s: establish %d→%d", w.Name, op.Src, op.Dst)
				}
				if p.Plan != nil && p.Plan.NodeShard[op.Src] != p.Plan.NodeShard[op.Dst] {
					cross++
				}
			}
		}
		if got := float64(cross) / float64(establishes); got < w.CrossShare-0.05 || got > w.CrossShare+0.05 {
			t.Errorf("%s: %.2f of establishes cross shards, want about %.2f", w.Name, got, w.CrossShare)
		}
		if len(sc.Warm[0]) <= w.Standing/Clients {
			t.Errorf("%s: warm list has no spares beyond the client's share", w.Name)
		}
	}
}

func TestFaultLinksAreSplitBetweenClients(t *testing.T) {
	for _, w := range Workloads() {
		sc := generate(t, w, 1)
		owner := map[int32]int{}
		for c, ops := range sc.Run {
			for _, op := range ops {
				if op.Kind != Fail {
					continue
				}
				if prev, seen := owner[op.Link]; seen && prev != c {
					t.Fatalf("%s: both clients fail link %d", w.Name, op.Link)
				}
				owner[op.Link] = c
			}
		}
	}
}
