package spans

import (
	"testing"
	"time"
)

func TestSelfTimeIsParentMinusChildCoverage(t *testing.T) {
	all := []Span{
		{ID: 1, Start: 0, End: 100},              // root
		{ID: 2, Parent: 1, Start: 10, End: 40},   // child
		{ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps child 2 by 10
		{ID: 4, Parent: 1, Start: 90, End: 120},  // sticks out of the parent by 20
		{ID: 5, Parent: 2, Start: 15, End: 20},   // grandchild: charged to 2, not to 1
		{ID: 6, Parent: 0, Start: 200, End: 230}, // childless root
	}
	self := SelfTimes(all)
	want := map[int]time.Duration{
		1: 100 - (30 + 20 + 10), // [10,40) ∪ [40,60) ∪ [90,100)
		2: 30 - 5,
		3: 30,
		4: 30,
		5: 5,
		6: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
}

func TestLayerSelfPairsByOperation(t *testing.T) {
	outer := map[int]time.Duration{0: 100, 1: 50, 2: 70}
	inner := map[int]time.Duration{0: 60, 1: 55}
	hook := map[int]time.Duration{0: 10}
	got := map[time.Duration]int{}
	for _, d := range LayerSelf(outer, inner, hook) {
		got[d]++
	}
	// op 0: 100-60-10; op 1: 50-55 (kept negative); op 2: nothing deeper.
	for _, w := range []time.Duration{30, -5, 70} {
		if got[w] != 1 {
			t.Errorf("LayerSelf = %v, missing %d", got, w)
		}
	}
}

func TestRecorderNestsAndNilRecordsNothing(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("server", "establish", 7, 0)
	child := r.Begin("server", "replica.ack_wait", 7, root)
	r.End(child)
	r.End(root)
	all := r.Spans()
	if len(all) != 2 || all[1].Parent != all[0].ID || all[1].Op != 7 {
		t.Fatalf("unexpected spans %+v", all)
	}
	if all[0].Start > all[1].Start || all[1].End > all[0].End {
		t.Errorf("child [%d,%d] not inside parent [%d,%d]", all[1].Start, all[1].End, all[0].Start, all[0].End)
	}
	if d := ByOp(all, "server", "establish")[7]; d != all[0].Duration() {
		t.Errorf("ByOp = %v, want %v", d, all[0].Duration())
	}
	if d, want := SelfByOp(all, "server", "establish")[7], all[0].Duration()-all[1].Duration(); d != want {
		t.Errorf("SelfByOp = %v, want %v", d, want)
	}

	var none *Recorder
	if id := none.Begin("x", "y", 0, 0); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	none.End(0)
	if none.Spans() != nil {
		t.Error("nil recorder has spans")
	}
}
