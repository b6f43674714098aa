// Package spans is drbench's in-memory tracer: a span around every call
// the traced run makes into a layer, kept in memory and written out as one
// JSON file when the run ends, plus the self-time arithmetic over them.
package spans

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer.
type Span struct {
	ID int `json:"id"`
	// Parent is the span that caused this one — a call that was still open
	// on the same replay when this one began — or 0 for a replay's
	// outermost call.
	Parent int `json:"parent"`
	// Op is the index of the scripted operation the call served. Spans of
	// one operation share it across replays: the same operation entered at
	// the manager, at the server and over HTTP has three root spans with
	// one Op.
	Op int `json:"op"`
	// Level names the replay (the entry point the script was driven at),
	// Name the call.
	Level string `json:"level"`
	Name  string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder collects spans. A nil *Recorder records nothing, which is how
// the untraced twin of a replay runs the same code.
type Recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty trace.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Begin(level, name string, op, parent int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Op: op, Level: level, Name: name, Start: now})
	return len(r.spans)
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the trace as a JSON array.
func (r *Recorder) WriteFile(path string) error {
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are not
// counted twice, and a child is only credited for the part inside its
// parent).
func SelfTimes(all []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range all {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(all))
	for _, s := range all {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// ByOp indexes the durations of the spans of one level and name by
// operation.
func ByOp(all []Span, level, name string) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, s := range all {
		if s.Level == level && s.Name == name {
			out[s.Op] += s.Duration()
		}
	}
	return out
}

// SelfByOp is ByOp over self times: what the calls cost apart from the
// child spans recorded inside them.
func SelfByOp(all []Span, level, name string) map[int]time.Duration {
	self := SelfTimes(all)
	out := map[int]time.Duration{}
	for _, s := range all {
		if s.Level == level && s.Name == name {
			out[s.Op] += self[s.ID]
		}
	}
	return out
}

// LayerSelf subtracts, operation by operation, the time the same operation
// took when entered one layer deeper: what is left is the outer layer's own
// share. Replays are deterministic, so operation i does the same work at
// every depth. Operations missing from inner count as all-outer; a
// difference below zero (timer noise on sub-microsecond layers) is kept,
// so the median stays unbiased.
func LayerSelf(outer map[int]time.Duration, inner ...map[int]time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(outer))
	for op, d := range outer {
		for _, in := range inner {
			d -= in[op]
		}
		out = append(out, d)
	}
	return out
}
