package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"drqos/internal/manager"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/shard"
	"drqos/internal/topology"
)

// TestRun drives the closed loop in process against a single plane and a
// 4-shard front end on the tier topology, a fifth of the operations link
// faults. Each run must end clean, its outcomes must add up to exactly the
// requests issued — the final repair of a worker's outstanding fault is
// not one of them — and its latency line must read ordered figures.
func TestRun(t *testing.T) {
	const requests = 400
	g, err := topology.TransitStub(topology.DefaultTransitStub(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := manager.Config{Capacity: 10000}
	planes := []struct {
		name    string
		handler func(t *testing.T) http.Handler
	}{
		{"single", func(t *testing.T) http.Handler {
			s, err := server.New(g, cfg, server.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Shutdown(context.Background()) })
			return server.NewHandler(s)
		}},
		{"shards=4", func(t *testing.T) http.Handler {
			c, err := shard.New(g, shard.Options{Shards: 4, Manager: cfg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Shutdown(context.Background()) })
			return shard.NewHandler(c)
		}},
	}
	outcomes := regexp.MustCompile(`(?m)^outcomes: (.*)$`)
	latency := regexp.MustCompile(`(?m)^latency: mean=\S+ p50=(\S+)ms p90=(\S+)ms p99=(\S+)ms max=(\S+)ms \(n=\d+\)$`)
	for _, p := range planes {
		t.Run(p.name, func(t *testing.T) {
			ts := httptest.NewServer(p.handler(t))
			defer ts.Close()
			var out bytes.Buffer
			err := run([]string{"-addr", ts.URL, "-workers", "4", "-requests", strconv.Itoa(requests),
				"-fault-frac", "0.2", "-seed", "3"}, &out)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			report := out.String()

			m := outcomes.FindStringSubmatch(report)
			if m == nil {
				t.Fatalf("no outcomes line in:\n%s", report)
			}
			sum := 0
			for _, kv := range strings.Fields(m[1]) {
				_, v, _ := strings.Cut(kv, "=")
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("outcome %q: %v", kv, err)
				}
				sum += n
			}
			if sum != requests {
				t.Errorf("outcomes sum to %d, want %d: %s", sum, requests, m[0])
			}

			l := latency.FindStringSubmatch(report)
			if l == nil {
				t.Fatalf("no numeric latency line in:\n%s", report)
			}
			var q [4]float64
			for i := range q {
				if q[i], err = strconv.ParseFloat(l[i+1], 64); err != nil {
					t.Fatal(err)
				}
			}
			if !(q[0] <= q[1] && q[1] <= q[2] && q[2] <= q[3]) {
				t.Errorf("latency figures out of order: %s", l[0])
			}
			if !strings.Contains(report, "\nserver invariants: clean\n") {
				t.Errorf("no clean invariant verdict in:\n%s", report)
			}
		})
	}
}
