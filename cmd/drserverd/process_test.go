package main

// Process rows: real drserverd processes, spawned, killed and restarted.
// The episode oracle (internal/chaos) judges what an admission plane does
// with a crash, a failover or a partition, in process, where it can read
// journals and live state. What only a process adds is checked here: flags
// reaching Options, signal handling, replay after a real SIGKILL, and the
// roles and interlocks a client sees over HTTP.
//
// The daemon is this test binary: TestMain runs main() instead of the tests
// when the marker variable is set in its environment, so no go build, fixed
// port or script is involved.
//
//	go test -run 'TestProcess/durable' ./cmd/drserverd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// daemonMarker, set in a child's environment, makes the test binary run as
// drserverd.
const daemonMarker = "DRSERVERD_PROCESS_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonMarker) != "" {
		// The parent holds the write end of stdin: EOF means it is gone
		// (a panic, a timeout), and no daemon outlives it.
		go func() {
			_, _ = io.Copy(io.Discard, os.Stdin)
			os.Exit(2)
		}()
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// drainBudget is every child's -drain.
const drainBudget = 5 * time.Second

// proc is one drserverd child process.
type proc struct {
	url    string
	cmd    *exec.Cmd
	stdin  *os.File      // closing it ends the child
	exited chan struct{} // closed once the process is reaped
	err    error         // what Wait returned; valid once exited is closed

	mu   sync.Mutex
	logs bytes.Buffer
	race bool // the race detector reported in the child's log
}

// spawn starts drserverd with args on a loopback port of its choosing and
// waits until it listens.
func spawn(t *testing.T, args ...string) *proc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	inR, inW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-addr", "127.0.0.1:0", "-drain", drainBudget.String()}, args...)...)
	cmd.Env = append(os.Environ(), daemonMarker+"=1")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = inR, outW, outW
	err = cmd.Start()
	inR.Close()
	outW.Close()
	if err != nil {
		inW.Close()
		outR.Close()
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, stdin: inW, exited: make(chan struct{})}
	listening := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(outR)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.logs.WriteString(line + "\n")
			p.race = p.race || strings.Contains(line, "WARNING: DATA RACE")
			p.mu.Unlock()
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				listening <- addr
			}
		}
		outR.Close()
	}()
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(func() {
		p.kill()
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.race {
			t.Errorf("data race in %v:\n%s", args, p.logs.String())
		}
	})
	select {
	case addr := <-listening:
		p.url = "http://" + addr
		return p
	case <-p.exited:
		t.Fatalf("drserverd %v exited before listening: %v\n%s", args, p.err, p.log())
	case <-time.After(30 * time.Second):
		t.Fatalf("drserverd %v did not listen within 30s\n%s", args, p.log())
	}
	return nil
}

func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.logs.String()
}

// kill sends SIGKILL and waits until the process is reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	<-p.exited
	p.stdin.Close()
}

// term sends SIGTERM and returns the exit status once the daemon drained.
func (p *proc) term() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		p.kill()
		return errors.New("did not drain within 15s")
	}
	p.stdin.Close()
	return p.err
}

var client = &http.Client{Timeout: 5 * time.Second}

// call issues one request; body may be empty. A transport error is returned,
// any status is not.
func call(method, url, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// getJSON reads url into out whatever the status, which it returns.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	code, raw, err := call("GET", url, "")
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("GET %s: %d %s: %v", url, code, raw, err)
	}
	return code
}

// audit is one plane's GET /v1/invariants answer: a single plane's, or
// one shard's entry of a sharded answer.
type audit struct {
	OK          bool   `json:"ok"`
	Fingerprint string `json:"fingerprint"`
	Seq         uint64 `json:"journal_seq"`
	Error       string `json:"error"`
}

// answer is a whole GET /v1/invariants answer.
type answer struct {
	audit
	Shards []audit `json:"shards"`
}

// invariants reads p's audit and fails the test on a dirty one.
func (p *proc) invariants(t *testing.T) answer {
	t.Helper()
	var a answer
	if code := getJSON(t, p.url+"/v1/invariants", &a); code != http.StatusOK || !a.OK {
		t.Fatalf("%s/v1/invariants: %d %+v\n%s", p.url, code, a, p.log())
	}
	return a
}

func (p *proc) role(t *testing.T) string {
	t.Helper()
	var r struct {
		Role string `json:"role"`
	}
	getJSON(t, p.url+"/readyz", &r)
	return r.Role
}

// waitReady waits for p's /readyz to answer 200: a leased primary turns
// ready once its standby streams.
func (p *proc) waitReady(t *testing.T) {
	t.Helper()
	waitFor(t, 10*time.Second, p.url+" ready", func() bool {
		code, _, err := call("GET", p.url+"/readyz", "")
		return err == nil && code == http.StatusOK
	})
}

// metric reads one unlabelled sample of p's /metrics.
func (p *proc) metric(t *testing.T, name string) float64 {
	t.Helper()
	_, raw, err := call("GET", p.url+"/metrics", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("%s/metrics exports no %s", p.url, name)
	return 0
}

// waitFor polls cond every 10 ms until it holds or within has passed.
func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(within); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %s", what, within)
		}
	}
}

// load is acknowledged churn from a few workers: establishes over a fixed
// list of node pairs, every third request a terminate of an acked
// connection. It remembers what the daemon told it.
type load struct {
	pairs [][2]int

	mu    sync.Mutex
	next  int
	acked map[int64]bool // answered 201, and no terminate sent since
}

func newLoad(pairs [][2]int) *load { return &load{pairs: pairs, acked: map[int64]bool{}} }

// ringPairs is n distinct node pairs of an n-node topology (drserverd's
// default has 100 nodes).
func ringPairs(n int) [][2]int {
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{i, (i*7 + 13) % n}
		if pairs[i][0] == pairs[i][1] {
			pairs[i][1] = (pairs[i][1] + 1) % n
		}
	}
	return pairs
}

// run sends ops more requests to url from four workers and returns the
// first failure. A worker stops at its first transport error: a daemon
// killed under the load ends it.
func (l *load) run(url string, ops int) error {
	l.mu.Lock()
	end := l.next + ops
	l.mu.Unlock()
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			for {
				l.mu.Lock()
				if l.next >= end {
					l.mu.Unlock()
					errs <- nil
					return
				}
				k := l.next
				l.next++
				victim := int64(-1)
				if k%3 == 2 {
					for id := range l.acked {
						victim = id
						delete(l.acked, id)
						break
					}
				}
				l.mu.Unlock()
				if err := l.one(url, k, victim); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < 4; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// one sends request k: a terminate of victim, or an establish.
func (l *load) one(url string, k int, victim int64) error {
	if victim >= 0 {
		code, raw, err := call("DELETE", fmt.Sprintf("%s/v1/connections/%d", url, victim), "")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("terminate %d: %d %s", victim, code, raw)
		}
		return err
	}
	pr := l.pairs[k%len(l.pairs)]
	code, raw, err := call("POST", url+"/v1/connections", fmt.Sprintf(`{"src":%d,"dst":%d}`, pr[0], pr[1]))
	switch {
	case err != nil:
		return err
	case code == http.StatusConflict: // rejected: an answer, not a failure
		return nil
	case code != http.StatusCreated:
		return fmt.Errorf("establish %v: %d %s", pr, code, raw)
	}
	var est struct {
		ID int64 `json:"id"`
	}
	if err := json.Unmarshal(raw, &est); err != nil {
		return err
	}
	l.mu.Lock()
	l.acked[est.ID] = true
	l.mu.Unlock()
	return nil
}

func (l *load) ackedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acked)
}

// burst runs l against p until at least n more connections are acked, then
// SIGKILLs p under the still-running load. It returns when the load has
// stopped, with the time the signal was sent.
func (l *load) burst(t *testing.T, p *proc, n int) time.Time {
	t.Helper()
	done := make(chan error, 1)
	want := l.ackedCount() + n
	go func() { done <- l.run(p.url, 1<<30) }()
	waitFor(t, 20*time.Second, fmt.Sprintf("%d acked connections", want), func() bool {
		select {
		case err := <-done:
			t.Fatalf("load stopped before the kill: %v\n%s", err, p.log())
		default:
		}
		return l.ackedCount() >= want
	})
	killed := time.Now()
	p.kill()
	<-done
	return killed
}

// requireAlive checks that every connection l was told about is alive at p.
func (l *load) requireAlive(t *testing.T, p *proc) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.acked) == 0 {
		t.Fatal("no acked connections to check")
	}
	for id := range l.acked {
		var st struct {
			Alive bool `json:"alive"`
		}
		if code := getJSON(t, fmt.Sprintf("%s/v1/connections/%d", p.url, id), &st); code != http.StatusOK || !st.Alive {
			t.Errorf("acked connection %d at %s: %d alive=%v", id, p.url, code, st.Alive)
		}
	}
}

// TestProcess drives real daemons through what only a process can show.
// scripts/check.sh runs every row under -race; go test -run
// 'TestProcess/<row>' ./cmd/drserverd runs one.
func TestProcess(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"durable", processDurable},
		{"sharded", processSharded},
		{"pair", processPair},
		{"pair-manual", processPairManual},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.run(t)
		})
	}
}

// processDurable: a journaled daemon replays to the same state after a
// SIGKILL when quiet, keeps every acked connection after a SIGKILL mid
// burst, and drains with exit status 0 on SIGTERM.
func processDurable(t *testing.T) {
	args := []string{"-data-dir", t.TempDir(), "-fsync", "1", "-snapshot-every", "50"}
	l := newLoad(ringPairs(100))
	p := spawn(t, args...)
	if err := l.run(p.url, 300); err != nil {
		t.Fatal(err)
	}
	if l.ackedCount() == 0 {
		t.Fatal("the load acked no connection")
	}

	quiet := p.invariants(t).audit
	p.kill()
	p = spawn(t, args...)
	if got := p.invariants(t).audit; got != quiet {
		t.Fatalf("after a quiet SIGKILL: %+v, before it %+v", got, quiet)
	}
	// Every record was synced before the kill: what follows them is the
	// segment's preallocated space, not a torn tail.
	if log := p.log(); strings.Contains(log, "bytes of torn tail") {
		t.Fatalf("a quiet SIGKILL left a torn tail:\n%s", log)
	}

	l.burst(t, p, 50)
	p = spawn(t, args...)
	p.invariants(t)
	l.requireAlive(t, p)
	t.Logf("all %d acked connections alive after the mid-burst SIGKILL", l.ackedCount())

	before := p.invariants(t).audit
	if err := p.term(); err != nil {
		t.Fatalf("SIGTERM: exit %v, want status 0\n%s", err, p.log())
	}
	p = spawn(t, args...)
	if got := p.invariants(t).audit; got != before {
		t.Fatalf("after SIGTERM: %+v, before it %+v", got, before)
	}
}

// processSharded: a four-shard daemon commits cross-shard establishes,
// replays every shard to its own fingerprint after a SIGKILL, keeps its
// 2PC counters, and admits intra- and cross-shard pairs again.
func processSharded(t *testing.T) {
	args := []string{"-kind", "tier", "-shards", "4", "-data-dir", t.TempDir(), "-fsync", "1", "-snapshot-every", "20"}
	p := spawn(t, args...)
	var plan struct {
		Shards    int   `json:"shards"`
		NodeShard []int `json:"node_shard"`
	}
	if getJSON(t, p.url+"/v1/shards", &plan); plan.Shards != 4 {
		t.Fatalf("/v1/shards says %d shards, want 4", plan.Shards)
	}
	// Alternate intra- and cross-shard pairs.
	var pairs [][2]int
	n := len(plan.NodeShard)
	for a := 0; a < n; a++ {
		for _, b := range []int{(a + 1) % n, (a + n/2) % n} {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	var intra, cross int
	for _, pr := range pairs {
		if plan.NodeShard[pr[0]] == plan.NodeShard[pr[1]] {
			intra++
		} else {
			cross++
		}
	}
	if intra == 0 || cross == 0 {
		t.Fatalf("%d intra- and %d cross-shard pairs, want both", intra, cross)
	}
	l := newLoad(pairs)
	if err := l.run(p.url, 300); err != nil {
		t.Fatal(err)
	}
	if c := p.metric(t, "drqos_cross_commit_total"); c < 1 {
		t.Fatalf("drqos_cross_commit_total %v before the restart, want >= 1", c)
	}

	before := p.invariants(t)
	p.kill()
	p = spawn(t, args...)
	after := p.invariants(t)
	if len(after.Shards) != 4 || len(before.Shards) != 4 {
		t.Fatalf("per-shard entries: %d before, %d after, want 4", len(before.Shards), len(after.Shards))
	}
	for i := range after.Shards {
		if after.Shards[i] != before.Shards[i] {
			t.Errorf("shard %d after SIGKILL: %+v, before it %+v", i, after.Shards[i], before.Shards[i])
		}
	}
	if c := p.metric(t, "drqos_cross_commit_total"); c < 1 {
		t.Errorf("drqos_cross_commit_total %v after the restart, want >= 1 (snapshot headers carry it)", c)
	}

	again := newLoad(pairs)
	if err := again.run(p.url, 100); err != nil {
		t.Fatal(err)
	}
	if again.ackedCount() == 0 {
		t.Fatal("the restarted plane admitted nothing")
	}
	p.invariants(t)
}

// processPair: a standby promotes itself within a second of its primary's
// SIGKILL and holds every acked connection; the ex-primary rejoins as its
// follower and converges to the same fingerprint.
func processPair(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a := spawn(t, "-data-dir", dirA, "-fsync", "1")
	b := spawn(t, "-data-dir", dirB, "-fsync", "1", "-replica-of", a.url, "-failover-timeout", "300ms")
	if r := b.role(t); r != "follower" {
		t.Fatalf("standby role %q, want follower", r)
	}
	a.waitReady(t)

	l := newLoad(ringPairs(100))
	killed := l.burst(t, a, 100)
	waitFor(t, 5*time.Second, "standby promoted", func() bool { return b.role(t) == "primary" })
	took := time.Since(killed)
	if took > time.Second {
		t.Errorf("promotion took %s after the SIGKILL, budget 1s", took.Round(time.Millisecond))
	}
	l.requireAlive(t, b)
	t.Logf("standby promoted %s after the SIGKILL, holding all %d acked connections", took.Round(time.Millisecond), l.ackedCount())

	a = spawn(t, "-data-dir", dirA, "-fsync", "1", "-replica-of", b.url, "-failover-timeout", "0")
	want := b.invariants(t).audit
	waitFor(t, 10*time.Second, "rejoined ex-primary caught up", func() bool {
		return a.invariants(t).audit == want
	})
	if r := a.role(t); r != "follower" {
		t.Errorf("rejoined ex-primary role %q, want follower", r)
	}

	// A drain ends the replication streams: the primary exits 0 within its
	// drain budget while its standby streams from it, and so does the
	// standby.
	termWithinBudget(t, b, a)
}

// termWithinBudget SIGTERMs each of procs in turn and requires exit status 0
// within the drain budget.
func termWithinBudget(t *testing.T, procs ...*proc) {
	t.Helper()
	for _, p := range procs {
		start := time.Now()
		if err := p.term(); err != nil {
			t.Fatalf("SIGTERM %s: exit %v, want status 0\n%s", p.url, err, p.log())
		}
		if took := time.Since(start); took > drainBudget {
			t.Errorf("SIGTERM %s: drained in %s, budget %s", p.url, took.Round(time.Millisecond), drainBudget)
		}
	}
}

// processPairManual: with lease fencing on and no automatic failover, the
// promote interlock refuses while the primary lives, and a promote after
// its SIGKILL succeeds once the lease lapses; the promoted node holds every
// acked connection and serves, and drains with a standby streaming.
func processPairManual(t *testing.T) {
	a := spawn(t, "-data-dir", t.TempDir(), "-fsync", "1", "-lease", "200ms")
	b := spawn(t, "-data-dir", t.TempDir(), "-fsync", "1", "-lease", "200ms",
		"-replica-of", a.url, "-failover-timeout", "0")
	a.waitReady(t)
	if lost := a.metric(t, "drqos_replica_lease_lost"); lost != 0 {
		t.Fatalf("drqos_replica_lease_lost %v on a polled primary, want 0", lost)
	}
	code, raw, err := call("POST", b.url+"/v1/admin/promote", "{}")
	if err != nil || code != http.StatusConflict || !strings.Contains(string(raw), "force") {
		t.Fatalf("promote beside a live primary: %d %s %v, want 409 naming force", code, raw, err)
	}

	l := newLoad(ringPairs(100))
	if err := l.run(a.url, 200); err != nil {
		t.Fatal(err)
	}
	a.kill()
	waitFor(t, 10*time.Second, "manual promote answered 200", func() bool {
		code, raw, err := call("POST", b.url+"/v1/admin/promote", "{}")
		if err == nil && code != http.StatusOK && code != http.StatusConflict {
			t.Fatalf("promote after the SIGKILL: %d %s", code, raw)
		}
		return err == nil && code == http.StatusOK
	})
	if r := b.role(t); r != "primary" {
		t.Fatalf("promoted standby role %q, want primary", r)
	}
	l.requireAlive(t, b)
	if err := l.run(b.url, 100); err != nil {
		t.Fatalf("load on the promoted node: %v", err)
	}
	l.requireAlive(t, b)

	// A fresh standby of the promoted node: once it streams and holds the
	// lease, a SIGTERM drains the leased primary and then the standby,
	// each with exit status 0 within the drain budget.
	c := spawn(t, "-data-dir", t.TempDir(), "-fsync", "1", "-lease", "200ms",
		"-replica-of", b.url, "-failover-timeout", "0")
	want := b.invariants(t).audit
	waitFor(t, 10*time.Second, "the new standby caught up", func() bool {
		return c.invariants(t).audit == want
	})
	termWithinBudget(t, b, c)
}
