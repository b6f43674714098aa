package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"drqos/internal/core"
	"drqos/internal/qos"
	"drqos/internal/sim"
)

// daemon is one run() under test: its base URL once it listens, and a stop
// that delivers the "signal" and returns run's error after the drain.
type daemon struct {
	url  string
	stop func() error
}

// boot starts run(args...) on 127.0.0.1:0 and waits for the listener. A
// daemon that refuses to boot is returned as its error.
func boot(t *testing.T, args ...string) (*daemon, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-nodes", "30", "-drain", "5s"}, args...),
			func(a net.Addr) { addrCh <- a })
	}()
	var once sync.Once
	var stopErr error
	stop := func() error {
		once.Do(func() {
			cancel()
			select {
			case stopErr = <-done:
			case <-time.After(10 * time.Second):
				t.Error("daemon did not drain within 10s")
			}
		})
		return stopErr
	}
	select {
	case a := <-addrCh:
		d := &daemon{url: "http://" + a.String(), stop: stop}
		t.Cleanup(func() { _ = d.stop() })
		return d, nil
	case err := <-done:
		cancel()
		return nil, err
	case <-time.After(30 * time.Second):
		_ = stop()
		t.Fatal("daemon never listened")
		return nil, nil
	}
}

func (d *daemon) do(t *testing.T, method, path, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, d.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// TestParseFlagsRefuses: a flag combination the daemon would accept and then
// ignore, or could not honour, is refused at parse time, before anything
// boots; the defaults parse clean.
func TestParseFlagsRefuses(t *testing.T) {
	if _, err := parseFlags(nil); err != nil {
		t.Fatalf("defaults: %v", err)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"replica-without-data-dir", []string{"-replica-of", "http://127.0.0.1:1"}},
		{"replica-sharded", []string{"-replica-of", "http://127.0.0.1:1", "-data-dir", t.TempDir(), "-shards", "2"}},
		{"lease-not-shorter", []string{"-lease", "750ms", "-failover-timeout", "750ms"}},
		{"fsync-zero", []string{"-fsync", "0"}},
		// Syncing every N events would acknowledge events not yet durable.
		{"fsync-every-5", []string{"-fsync", "5"}},
		// Group commit's wait is the journal's: -group-commit-max-wait is
		// an unknown flag, with or without -fsync 1.
		{"group-commit-without-fsync-1", []string{"-group-commit-max-wait", "2ms", "-fsync", "5"}},
		{"group-commit-negative", []string{"-group-commit-max-wait", "-1ms"}},
		{"forecast-sharded", []string{"-forecast-interval", "1s", "-shards", "2"}},
		{"predictive-without-interval", []string{"-forecast-predictive"}},
		// Redirects go to -replica-of; no flag names this node's own URL.
		{"advertise", []string{"-advertise", "http://x"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseFlags(tc.args); err == nil {
				t.Fatalf("%v parsed clean", tc.args)
			} else if !strings.Contains(err.Error(), tc.args[0]) {
				t.Errorf("%v: error %q does not name %s", tc.args, err, tc.args[0])
			}
		})
	}
}

// TestBootServeDrain boots both planes in memory, checks each reaches
// /readyz, admits an establish, and drains cleanly when told to stop. A row
// with then also probes what its flags switched on.
func TestBootServeDrain(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		then func(t *testing.T, d *daemon)
	}{
		{"single", []string{"-no-require-backup"}, nil},
		{"shards-2", []string{"-no-require-backup", "-kind", "tier", "-shards", "2"}, nil},
		{"forecast", []string{"-no-require-backup", "-forecast-interval", "20ms", "-forecast-predictive"}, forecastAnswers},
	} {
		t.Run(tc.name, func(t *testing.T) {
			procs := runtime.GOMAXPROCS(0)
			d, err := boot(t, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			if code, body := d.do(t, "GET", "/readyz", ""); code != http.StatusOK {
				t.Fatalf("/readyz: %d %s", code, body)
			}
			if code, body := d.do(t, "POST", "/v1/connections", `{"src":0,"dst":1}`); code != http.StatusCreated {
				t.Fatalf("establish: %d %s", code, body)
			}
			if code, body := d.do(t, "GET", "/v1/invariants", ""); code != http.StatusOK {
				t.Fatalf("/v1/invariants: %d %s", code, body)
			}
			if tc.then != nil {
				tc.then(t, d)
			}
			if err := d.stop(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			// Only drserverd's main sets the processor count.
			if got := runtime.GOMAXPROCS(0); got != procs {
				t.Fatalf("GOMAXPROCS %d after run(), %d before", got, procs)
			}
		})
	}
}

// forecastAnswers drives the churn the live model needs before its first
// solve (20 observed events), then waits for GET /v1/forecast to carry a
// solve and POST /v1/forecast/whatif to answer a counterfactual: the
// -forecast-* flags reached forecast.Config.
func forecastAnswers(t *testing.T, d *daemon) {
	for i := 0; i < 30; i++ {
		code, body := d.do(t, "POST", "/v1/connections", fmt.Sprintf(`{"src":%d,"dst":%d}`, i, (i+11)%30))
		var est struct {
			ID int64 `json:"id"`
		}
		if code != http.StatusCreated || json.Unmarshal([]byte(body), &est) != nil {
			t.Fatalf("establish %d: %d %s", i, code, body)
		}
		if i%2 == 1 {
			if code, body := d.do(t, "DELETE", fmt.Sprintf("/v1/connections/%d", est.ID), ""); code != http.StatusOK {
				t.Fatalf("terminate %d: %d %s", est.ID, code, body)
			}
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		code, body := d.do(t, "GET", "/v1/forecast", "")
		if code != http.StatusOK {
			t.Fatalf("/v1/forecast: %d %s", code, body)
		}
		code, wi := d.do(t, "POST", "/v1/forecast/whatif", `{"count":5}`)
		if code == http.StatusOK && strings.Contains(wi, `"admit"`) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no what-if answer within 10s: %d %s (forecast: %s)", code, wi, body)
		}
	}
}

// TestBootFromSimDir: a directory the simulator journaled (drsim -trace) is
// a daemon's boot state — under the same topology and admission flags the
// daemon accepts its marker and serves the simulator's final state.
func TestBootFromSimDir(t *testing.T) {
	dir := t.TempDir()
	meta := core.DataMeta{Kind: "waxman", Nodes: 30, Seed: 1, CapacityKbps: int64(core.PaperCapacity),
		Policy: "coefficient", Multiplex: true}
	sys, mcfg, err := meta.Build()
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := core.OpenTrace(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sys.Graph(), sim.Config{
		Seed: 1, Spec: qos.DefaultSpec(), Manager: mcfg,
		Lambda: 0.001, Mu: 0.001, Gamma: 0.001, RepairRate: 0.01,
		InitialConns: 150, ChurnEvents: 200, WarmupEvents: 20,
		Trace: jnl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.Run(); err != nil || res.AliveAtEnd == 0 || res.Failures == 0 {
		t.Fatalf("the run must end populated, with failures behind it: %+v %v", res, err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	d, err := boot(t, "-data-dir", dir, "-fsync", "-1", "-no-require-backup")
	if err != nil {
		t.Fatal(err)
	}
	code, body := d.do(t, "GET", "/v1/invariants", "")
	var inv struct {
		OK          bool   `json:"ok"`
		Fingerprint string `json:"fingerprint"`
	}
	if code != http.StatusOK || json.Unmarshal([]byte(body), &inv) != nil || !inv.OK {
		t.Fatalf("/v1/invariants: %d %s", code, body)
	}
	if want := s.ManagerForTesting().ExportState().Fingerprint(); inv.Fingerprint != want {
		t.Fatalf("daemon booted to %s, the simulator ended at %s", inv.Fingerprint, want)
	}
}

// TestDataDirPinnedToConfig: a data directory replays only under the config
// that wrote it — another topology, another shard count or the other kind
// of plane is refused at boot — and boots again under its own.
func TestDataDirPinnedToConfig(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wrote  []string
		others [][]string
	}{
		{"single", nil, [][]string{{"-seed", "2"}, {"-kind", "tier", "-shards", "2"}}},
		{"sharded", []string{"-kind", "tier", "-shards", "2"}, [][]string{{"-kind", "tier", "-shards", "3"}, {"-kind", "tier"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			with := func(args []string) []string {
				return append([]string{"-data-dir", dir, "-fsync", "-1", "-no-require-backup"}, args...)
			}
			d, err := boot(t, with(tc.wrote)...)
			if err != nil {
				t.Fatal(err)
			}
			if code, body := d.do(t, "POST", "/v1/connections", `{"src":0,"dst":1}`); code != http.StatusCreated {
				t.Fatalf("establish: %d %s", code, body)
			}
			if err := d.stop(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			for _, other := range tc.others {
				if d, err := boot(t, with(other)...); err == nil {
					_ = d.stop()
					t.Errorf("directory written under %v booted under %v", tc.wrote, other)
				}
			}
			d, err = boot(t, with(tc.wrote)...)
			if err != nil {
				t.Fatalf("reboot under the writing config: %v", err)
			}
			if code, body := d.do(t, "GET", "/v1/stats", ""); code != http.StatusOK || !strings.Contains(body, `"alive": 1`) {
				t.Errorf("replayed stats: %d %s", code, body)
			}
		})
	}
}
