// Package sim is the detailed connection-level discrete-event simulator the
// reproduction uses in place of the authors' unpublished simulator (§3.3,
// §4): it loads a topology with DR-connections, drives Poisson arrivals,
// terminations and link failures through the network manager's transition
// (manager.Apply, the daemon's own), measures the
// paper's model parameters (Pf, Ps, A, B, T) online, and reports the
// time-weighted average reserved bandwidth that Figures 2-4 and Table 1
// plot.
package sim

import "container/heap"

// eventKind enumerates the simulator's event types.
type eventKind int

const (
	evArrival eventKind = iota + 1
	evTermination
	evFailure
	evRepair
)

// event is one scheduled occurrence. seq breaks time ties deterministically
// in insertion order.
type event struct {
	at   float64
	seq  int64
	kind eventKind
	// link carries the target link for repair events.
	link int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// queue wraps the heap with a sequence counter.
type queue struct {
	h   eventHeap
	seq int64
}

func (q *queue) push(at float64, kind eventKind, link int) {
	q.seq++
	heap.Push(&q.h, event{at: at, seq: q.seq, kind: kind, link: link})
}

func (q *queue) pop() (event, bool) {
	if len(q.h) == 0 {
		return event{}, false
	}
	return heap.Pop(&q.h).(event), true
}
