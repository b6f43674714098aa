package main

import (
	"context"
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
// /readyz, admits an establish, and drains cleanly when told to stop.
func TestBootServeDrain(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"single", []string{"-no-require-backup"}},
		{"shards-2", []string{"-no-require-backup", "-kind", "tier", "-shards", "2"}},
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
			if err := d.stop(); err != nil {
				t.Fatalf("drain: %v", err)
			}
		})
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
