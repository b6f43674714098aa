package load

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"drqos/bench/script"
)

// Result is what the clients observed over the measured part of a script.
type Result struct {
	// Wall is the time from the clients' common start to the last client
	// finishing its script.
	Wall time.Duration
	// Samples holds every measured round-trip time, by op kind. A slot spent
	// as a read (see worker.terminate) is sampled as the read it was.
	Samples [script.NumKinds][]time.Duration
	// SentBytes and RecvBytes total the bytes of the measured exchanges, by
	// the kind of the scripted slot.
	SentBytes, RecvBytes [script.NumKinds]int64

	Attempted int // measured operations issued
	Failed    int // transport errors and unexpected statuses

	EstablishSent     int
	EstablishAccepted int
	EstablishInLimit  int // answered (201 or clean reject) within the limit
	// Gone counts terminates and point reads answered 404 because a fault
	// had dropped the connection; Respent counts terminate slots spent as a
	// stats read to level the population after a reject or a drop.
	Gone    int
	Respent int

	Errors []string // first few failures, for the report
}

// Runner drives one deployment with script.Clients closed-loop clients.
type Runner struct {
	sharded bool
	limit   time.Duration
	workers [script.Clients]*worker

	// Observe, when set, sees every measured response body (trace runs parse
	// stats payloads with it). It runs on the client goroutines.
	Observe func(kind script.Kind, status int, body []byte)

	progress atomic.Int64 // measured operations completed, all clients

	mu      sync.Mutex
	dropped map[int64]bool // connections the daemon reported dropped by a fault
	gone    []int64        // connections a client found gone (404)
}

// worker is one client: its connection, the connections it owns (oldest
// first) and what it measured.
type worker struct {
	r      *Runner
	c      *Client
	ledger []int64
	// debt counts how far this client is below its scripted population: one
	// per rejected establish and per own connection reported dropped. Each
	// unit turns one later terminate slot into a read.
	debt int
	res  Result
	path []byte
}

// NewRunner opens the clients' connections to baseURL.
func NewRunner(baseURL string, w script.Workload) (*Runner, error) {
	r := &Runner{
		sharded: w.Shards > 1,
		limit:   time.Duration(w.EstablishLimitMs * float64(time.Millisecond)),
		dropped: map[int64]bool{},
	}
	for i := range r.workers {
		c, err := Dial(baseURL)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.workers[i] = &worker{r: r, c: c}
	}
	return r, nil
}

// Close closes the clients' connections.
func (r *Runner) Close() {
	for _, w := range r.workers {
		if w != nil {
			w.c.Close()
		}
	}
}

// each runs f once per client, concurrently, and waits for all of them.
func (r *Runner) each(f func(i int, w *worker)) {
	var wg sync.WaitGroup
	for i, w := range r.workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			f(i, w)
		}(i, w)
	}
	wg.Wait()
}

// unmeasured closes a set-up phase: it reports the phase's first failure
// and clears what the clients recorded, so the next phase starts clean.
func (r *Runner) unmeasured(phase string) error {
	var first error
	for _, w := range r.workers {
		if w.res.Failed > 0 && first == nil {
			first = fmt.Errorf("%s: %s", phase, w.res.Errors[0])
		}
		w.res = Result{}
	}
	return first
}

// Populate builds the standing population: each client establishes its
// share from its warm list, drawing on the spares when one is rejected.
func (r *Runner) Populate(warm [script.Clients][]script.Op, standing int) error {
	share := standing / script.Clients
	r.each(func(i int, w *worker) {
		for _, op := range warm[i] {
			if len(w.ledger) == share {
				break
			}
			w.exec(op, false)
		}
		w.debt = 0 // the spares paid for the rejects
	})
	if err := r.unmeasured("populate"); err != nil {
		return err
	}
	for _, w := range r.workers {
		if len(w.ledger) < share {
			return fmt.Errorf("populate: only %d of %d connections admitted", len(w.ledger), share)
		}
	}
	return nil
}

// WarmUp executes the leading, unmeasured part of the script.
func (r *Runner) WarmUp(ops [script.Clients][]script.Op) error {
	r.each(func(i int, w *worker) {
		for _, op := range ops[i] {
			w.exec(op, false)
		}
	})
	return r.unmeasured("warm-up")
}

// Run executes the measured part of the script, both clients starting
// together. tick runs once before they start and then after every `every`
// operations of the first client, on that client's goroutine — never
// concurrently with itself — so the caller can sample the daemon's counters
// against Progress at even steps through the script.
func (r *Runner) Run(ops [script.Clients][]script.Op, every int, tick func()) Result {
	tick()
	start := time.Now()
	r.each(func(i int, w *worker) {
		for j, op := range ops[i] {
			w.exec(op, true)
			r.progress.Add(1)
			if i == 0 && (j+1)%every == 0 {
				tick()
			}
		}
	})
	total := Result{Wall: time.Since(start)}
	for _, w := range r.workers {
		total.merge(&w.res)
	}
	return total
}

func (t *Result) merge(o *Result) {
	for k := range o.Samples {
		t.Samples[k] = append(t.Samples[k], o.Samples[k]...)
		t.SentBytes[k] += o.SentBytes[k]
		t.RecvBytes[k] += o.RecvBytes[k]
	}
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.EstablishSent += o.EstablishSent
	t.EstablishAccepted += o.EstablishAccepted
	t.EstablishInLimit += o.EstablishInLimit
	t.Gone += o.Gone
	t.Respent += o.Respent
	for _, e := range o.Errors {
		if len(t.Errors) < 5 {
			t.Errors = append(t.Errors, e)
		}
	}
}

// Progress returns how many measured operations the clients have completed.
func (r *Runner) Progress() int { return int(r.progress.Load()) }

// Ledger returns every connection the clients still own, minus the ones
// the daemon reported dropped.
func (r *Runner) Ledger() []int64 {
	var ids []int64
	for _, w := range r.workers {
		for _, id := range w.ledger {
			if !r.dropped[id] {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// UnexplainedGone returns connections a client found gone (404) that no
// fault response reported dropped. The sharded front end does not report
// drops, so there every 404 is taken at its word.
func (r *Runner) UnexplainedGone() []int64 {
	if r.sharded {
		return nil
	}
	var out []int64
	for _, id := range r.gone {
		if !r.dropped[id] {
			out = append(out, id)
		}
	}
	return out
}

// Get issues one unmeasured GET on the first client's connection (post-run
// verification; the clients are idle by then).
func (r *Runner) Get(path string) (int, []byte, error) {
	return r.workers[0].c.Do("GET", path, nil)
}

func (w *worker) fail(format string, args ...any) {
	w.res.Failed++
	if len(w.res.Errors) < 5 {
		w.res.Errors = append(w.res.Errors, fmt.Sprintf(format, args...))
	}
}

func (w *worker) connPath(id int64) string {
	w.path = strconv.AppendInt(append(w.path[:0], "/v1/connections/"...), id, 10)
	return string(w.path)
}

// exec performs one scripted operation. A slot is always exactly one
// request, so the number of requests a script issues is fixed.
func (w *worker) exec(op script.Op, measured bool) {
	kind := op.Kind
	method, path := "GET", "/v1/stats"
	var body []byte
	var target int64
	switch kind {
	case script.Establish:
		method, path = "POST", "/v1/connections"
		body = EstablishBody(op.Src, op.Dst)
	case script.Terminate:
		if id, ok := w.terminateTarget(); ok {
			method, path, target = "DELETE", w.connPath(id), id
		} else {
			// The client is below its scripted population: spend the slot as
			// a stats read instead of shrinking it further.
			kind = script.ReadStats
			w.res.Respent++
		}
	case script.ReadPoint:
		switch {
		case w.r.sharded:
			path = "/v1/shards" // the sharded front end has no point lookup
		case len(w.ledger) > 0:
			target = w.ledger[len(w.ledger)-1]
			path = w.connPath(target)
		}
	case script.Fail, script.Repair:
		method, path = "POST", "/v1/faults/link"
		action := "fail"
		if kind == script.Repair {
			action = "repair"
		}
		body = FaultBody(op.Link, action)
	}

	sent0, recv0 := w.c.sent, w.c.recv
	t0 := time.Now()
	status, resp, err := w.c.Do(method, path, body)
	dur := time.Since(t0)
	if measured {
		w.res.Attempted++
		w.res.Samples[kind] = append(w.res.Samples[kind], dur)
		w.res.SentBytes[op.Kind] += w.c.sent - sent0
		w.res.RecvBytes[op.Kind] += w.c.recv - recv0
		if kind == script.Establish {
			w.res.EstablishSent++
		}
	}
	if err != nil {
		w.fail("%v", err)
		return
	}
	if measured && w.r.Observe != nil {
		w.r.Observe(kind, status, resp)
	}

	switch kind {
	case script.Establish:
		accepted := status == http.StatusCreated
		rejected := Rejected(status, resp)
		switch {
		case accepted:
			var rep struct {
				ID int64 `json:"id"`
			}
			if err := json.Unmarshal(resp, &rep); err != nil {
				w.fail("establish: undecodable 201 body: %v", err)
				return
			}
			w.ledger = append(w.ledger, rep.ID)
		case rejected:
			w.debt++
		default:
			w.fail("establish %d→%d: status %d: %s", op.Src, op.Dst, status, resp)
			return
		}
		if measured {
			if accepted {
				w.res.EstablishAccepted++
			}
			if dur <= w.r.limit {
				w.res.EstablishInLimit++
			}
		}
	case script.Terminate, script.ReadPoint:
		if status == http.StatusNotFound && target != 0 {
			w.r.mu.Lock()
			w.r.gone = append(w.r.gone, target)
			w.r.mu.Unlock()
			if measured {
				w.res.Gone++
			}
		} else if status != http.StatusOK {
			w.fail("%s %s: status %d: %s", method, path, status, resp)
		}
	case script.Fail:
		if status != http.StatusOK {
			w.fail("fail link %d: status %d: %s", op.Link, status, resp)
			return
		}
		var rep struct {
			Dropped []int64 `json:"dropped"`
		}
		if err := json.Unmarshal(resp, &rep); err != nil {
			w.fail("fail link %d: undecodable body: %v", op.Link, err)
			return
		}
		w.r.noteDropped(rep.Dropped)
	default: // ReadStats, Repair
		if status != http.StatusOK {
			w.fail("%s %s: status %d: %s", method, path, status, resp)
		}
	}
}

// terminateTarget pops the oldest connection this client owns that is not
// known to be dropped. It reports false when the slot should be spent as a
// read instead: the client owes the population a connection (debt), or the
// oldest one is already known dead — terminating the next one as well would
// shrink the population twice for one slot.
func (w *worker) terminateTarget() (int64, bool) {
	if w.debt > 0 {
		w.debt--
		return 0, false
	}
	if len(w.ledger) == 0 {
		return 0, false
	}
	id := w.ledger[0]
	w.ledger = w.ledger[1:]
	w.r.mu.Lock()
	dead := w.r.dropped[id]
	w.r.mu.Unlock()
	return id, !dead
}

func (r *Runner) noteDropped(ids []int64) {
	if len(ids) == 0 {
		return
	}
	r.mu.Lock()
	for _, id := range ids {
		r.dropped[id] = true
	}
	r.mu.Unlock()
}
