package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"drqos/bench/calib"
	"drqos/bench/daemon"
	"drqos/bench/load"
	"drqos/bench/script"
)

// setups is how many times a timed run sets its deployment up; setup_s is
// the median, which a single slow spawn or first touch of the data
// directory cannot move.
const setups = 3

// warmShare is the leading share of the script that runs unmeasured, as the
// last stage of set-up.
const warmShare = 0.05

// steps is how many even steps the measured script is cut into. Throughput
// and CPU cost are computed per step and reported as the median over steps:
// a neighbour's burst on the shared host slows a few steps, not the figure.
const steps = 20

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result of one run of one workload.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string       // why Correct is false
	samples  map[string]int // sample count behind each metric, for the table
	speed    float64        // machine speed factor over the measured window, for the table
}

func (o *outcome) set(name, unit string, v float64, n int) {
	o.Metrics[name] = metric{Value: v, Unit: unit}
	o.samples[name] = n
}

func (o *outcome) problem(format string, args ...any) {
	o.Correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func newOutcome() *outcome {
	return &outcome{Correct: true, Metrics: map[string]metric{}, samples: map[string]int{}}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// live is a running deployment with its populated load clients.
type live struct {
	dep    *daemon.Deployment
	runner *load.Runner
}

func (l *live) stop() error {
	l.runner.Close()
	return l.dep.Stop()
}

// setUp does everything that precedes the measured window and times it, at
// nominal machine speed, as setup_s: spawn w's deployment in dir, wait for /readyz, open the clients'
// connections, build the standing population and run the script's
// unmeasured lead. The population doubles as warm-up of the daemon; the lead
// brings the op mix, the faults and the journal up to steady state too.
func (e *env) setUp(w script.Workload, sc *script.Script, dir string) (*live, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	probe := calib.Start()
	t0 := time.Now()
	l, err := e.deploy(w, sc, dir)
	took := time.Since(t0)
	speed, _ := probe.Stop()
	if err != nil {
		return nil, 0, err
	}
	return l, atNominalSpeed(w, took, speed), nil
}

// deploy is the timed part of setUp.
func (e *env) deploy(w script.Workload, sc *script.Script, dir string) (*live, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dep, err := daemon.Start(ctx, e.serverBin, dir, w)
	if err != nil {
		return nil, err
	}
	runner, err := load.NewRunner(dep.Procs[0].URL, w)
	if err == nil {
		lead, _ := split(sc)
		if err = runner.Populate(sc.Warm, w.Standing); err == nil {
			err = runner.WarmUp(lead)
		}
		if err != nil {
			runner.Close()
		}
	}
	if err != nil {
		_ = dep.Stop() // the set-up error is the one worth reporting
		return nil, err
	}
	return &live{dep, runner}, nil
}

// atNominalSpeed expresses a duration measured while the machine ran at the
// given speed factor as what it would have been at nominal speed.
func atNominalSpeed(w script.Workload, d time.Duration, speed float64) time.Duration {
	if w.TimerBound {
		return d
	}
	return time.Duration(float64(d) / speed)
}

// split cuts each client's script into the unmeasured lead and the
// measured rest.
func split(sc *script.Script) (lead, rest [script.Clients][]script.Op) {
	for c, ops := range sc.Run {
		n := int(warmShare * float64(len(ops)))
		lead[c], rest[c] = ops[:n], ops[n:]
	}
	return lead, rest
}

// step is the state of a run at one tick of the script.
type step struct {
	at   time.Time
	cpu  time.Duration // daemon CPU time consumed so far
	done int           // measured operations completed so far
	kbps float64       // population-mean granted bandwidth the daemon reports
	// speed is the machine's speed factor over the step that ends here.
	speed float64
}

// measured is one execution of a script against a fresh deployment.
type measured struct {
	res    load.Result
	steps  []step
	rssMB  float64
	setups []time.Duration
	speed  float64  // machine speed factor over the measured window
	before statsDoc // daemon counters when the measured window opens
	after  statsDoc // and after the script
}

// runScript sets the deployment up (once, or repeatedly for a stable
// setup_s, keeping the last), runs the script against it, verifies the
// outcome and tears everything down. Verification problems land in o; only
// failures to run at all are errors.
func (e *env) runScript(w script.Workload, sc *script.Script, repeatSetup bool, observe func(script.Kind, int, []byte), o *outcome) (*measured, error) {
	work, err := os.MkdirTemp(e.workDir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	m := &measured{}
	var l *live
	for i := 0; i == 0 || repeatSetup && i < setups; i++ {
		if l != nil {
			if err := l.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		if l, took, err = e.setUp(w, sc, filepath.Join(work, fmt.Sprint(i))); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, took)
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = l.stop() // an earlier error is already being returned
		}
	}()

	l.runner.Observe = observe
	if m.before, err = fetchStats(l.runner); err != nil {
		return nil, err
	}
	// Each tick also asks the daemon for its mean granted bandwidth: the
	// population turns over many times during a script, so the mean over the
	// ticks says more about the workload than the last snapshot would. The
	// request rides on the first client's connection between two of its
	// scripted operations and is in no latency sample.
	var tickErr error
	probe := calib.Start()
	tick := func() {
		cpu, err := l.dep.CPU()
		if err != nil && tickErr == nil {
			tickErr = err
		}
		st, err := fetchStats(l.runner)
		if err != nil && tickErr == nil {
			tickErr = err
		}
		speed, _ := probe.Lap()
		m.steps = append(m.steps, step{time.Now(), cpu, l.runner.Progress(), st.plane().AvgBandwidthKbps, speed})
	}
	_, rest := split(sc)
	m.res = l.runner.Run(rest, max(len(rest[0])/steps, 1), tick)
	tick()
	m.speed, _ = probe.Stop()
	if tickErr != nil {
		return nil, tickErr
	}
	if m.rssMB, err = l.dep.PeakRSSMB(); err != nil {
		return nil, err
	}
	// The invariant audit is a command on the actor loop, and the first
	// command after a burst flushes the epoch whose publication the burst
	// deferred: only after it do the stats describe the end of the script.
	fingerprint := auditInvariants(l, o)
	if m.after, err = fetchStats(l.runner); err != nil {
		return nil, err
	}

	o.Attempted, o.Failed = m.res.Attempted, m.res.Failed
	for _, msg := range m.res.Errors {
		o.problem("request failed: %s", msg)
	}
	if m.res.Failed > 0 && len(m.res.Errors) == 0 {
		o.problem("%d requests failed", m.res.Failed)
	}
	verify(l, w, m, fingerprint, o)

	stopped = true
	if err := l.stop(); err != nil {
		o.problem("shutdown: %v", err)
	}
	return m, nil
}

// timedRun is the untraced run: the end-to-end metrics.
func (e *env) timedRun(w script.Workload, seed int64, seconds int) (*outcome, error) {
	plane, err := script.NewPlane(w)
	if err != nil {
		return nil, err
	}
	sc := plane.Generate(seed, w.Ops(seconds))
	o := newOutcome()
	m, err := e.runScript(w, sc, true, nil, o)
	if err != nil {
		return nil, err
	}
	r := &m.res
	o.speed = m.speed
	est := r.Samples[script.Establish]
	o.set("setup_s", "s", load.Quantile(m.setups, 0.5).Seconds(), len(m.setups))
	rate, _ := m.perStep(w)
	o.set("ops_per_s", "ops/s", rate, r.Attempted)
	o.set("establish_p50_ms", "ms", ms(atNominalSpeed(w, load.Quantile(est, 0.5), m.speed)), len(est))
	o.set("establish_in_limit", "ratio", ratio(r.EstablishInLimit, r.EstablishSent), r.EstablishSent)
	o.set("rss_peak_mb", "MB", m.rssMB, 1)
	o.set("accept_ratio", "ratio", ratio(r.EstablishAccepted, r.EstablishSent), r.EstablishSent)
	var kbps float64
	for _, s := range m.steps {
		kbps += s.kbps / float64(len(m.steps))
	}
	o.set("avg_bw_kbps", "Kbps", kbps, len(m.steps))
	return o, nil
}

// perStep returns the median over the script's steps of the throughput
// (operations per second, each step at nominal machine speed) and of the
// daemon CPU cost (ms per operation, as measured).
func (m *measured) perStep(w script.Workload) (rate, cpuMs float64) {
	var rates, costs []float64
	for i := 1; i < len(m.steps); i++ {
		a, b := m.steps[i-1], m.steps[i]
		if b.done == a.done {
			continue // the closing tick right after a step boundary
		}
		rates = append(rates, float64(b.done-a.done)/atNominalSpeed(w, b.at.Sub(a.at), b.speed).Seconds())
		costs = append(costs, ms(b.cpu-a.cpu)/float64(b.done-a.done))
	}
	sort.Float64s(rates)
	sort.Float64s(costs)
	if len(rates) == 0 {
		return 0, 0
	}
	return rates[len(rates)/2], costs[len(costs)/2]
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// planeStats is the part of GET /v1/stats drbench reads. Field names follow
// internal/server.Stats.
type planeStats struct {
	Alive            int     `json:"alive"`
	AvgBandwidthKbps float64 `json:"avg_bandwidth_kbps"`
	OverloadEpisodes int64   `json:"overload_episodes"`
	ShedExpired      int64   `json:"shed_expired"`
	ShedCanceled     int64   `json:"shed_canceled"`
	JournalSeq       uint64  `json:"journal_seq"`
	FsyncBatches     int64   `json:"fsync_batches"`
	BatchedAppends   int64   `json:"batched_appends"`
	Lanes            map[string]struct {
		DelayP50Sec float64 `json:"delay_p50_seconds"`
	} `json:"lanes"`
	Epoch struct {
		AgeSeconds float64 `json:"age_seconds"`
		Publishes  int64   `json:"publishes"`
	} `json:"epoch"`
	Replica *struct {
		ReplicatedSeq uint64 `json:"replicated_seq"`
		LeaseLost     bool   `json:"lease_lost"`
	} `json:"replica"`
}

// statsDoc decodes both shapes of GET /v1/stats: the single plane's bare
// Stats, and the sharded front end's aggregate + per-shard envelope.
type statsDoc struct {
	planeStats
	Shards        int          `json:"shards"`
	Aggregate     *planeStats  `json:"aggregate"`
	PerShard      []planeStats `json:"per_shard"`
	CrossAttempts int64        `json:"cross_attempts"`
	CrossAborted  int64        `json:"cross_aborted"`
	CrossTimeouts int64        `json:"cross_timeouts"`
	CrossPending  int          `json:"cross_pending"`
}

// plane returns the deployment-wide view.
func (d *statsDoc) plane() *planeStats {
	if d.Aggregate != nil {
		return d.Aggregate
	}
	return &d.planeStats
}

func fetchStats(r *load.Runner) (statsDoc, error) {
	var doc statsDoc
	status, body, err := r.Get("/v1/stats")
	if err != nil {
		return doc, err
	}
	if status != 200 {
		return doc, fmt.Errorf("GET /v1/stats: status %d", status)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return doc, nil
}
