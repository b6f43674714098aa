package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
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
