package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"drqos/bench/script"
)

// minAcceptRatio is the floor under which a run measures the reject fast
// path instead of admission, and is refused.
const minAcceptRatio = 0.9

// auditInvariants asks the daemon to recompute its whole ledger and returns
// the state fingerprint it reports.
func auditInvariants(l *live, o *outcome) string {
	status, body, err := l.runner.Get("/v1/invariants")
	var inv struct {
		OK          bool   `json:"ok"`
		Fingerprint string `json:"fingerprint"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &inv)
	}
	if err != nil || !inv.OK {
		o.problem("GET /v1/invariants: status %d, err %v: %s", status, err, body)
	}
	return inv.Fingerprint
}

// verify is the rest of the correctness gate run after every script, while
// the daemons are still up. Each problem it records makes the run incorrect.
func verify(l *live, w script.Workload, m *measured, fingerprint string, o *outcome) {
	r := &m.res
	if acc := ratio(r.EstablishAccepted, r.EstablishSent); acc < minAcceptRatio {
		o.problem("accept ratio %.3f below %.2f", acc, minAcceptRatio)
	}
	if n := m.after.plane().OverloadEpisodes; n != 0 {
		o.problem("%d overload episodes: the daemon shed load", n)
	}

	ledger := l.runner.Ledger()
	if dev := math.Abs(float64(len(ledger)-w.Standing)) / float64(w.Standing); dev > 0.05 {
		o.problem("population drifted: %d connections owned at the end, standing population %d", len(ledger), w.Standing)
	}
	if ids := l.runner.UnexplainedGone(); len(ids) > 0 {
		o.problem("%d connections answered 404 though no fault reported them dropped (first: %d)", len(ids), ids[0])
	}
	if w.Shards == 1 {
		// Every acknowledged, still-owned connection must be there; the
		// sharded front end has no point lookup to ask.
		for _, id := range ledger {
			status, body, err := l.runner.Get(fmt.Sprintf("/v1/connections/%d", id))
			var st struct {
				Alive bool `json:"alive"`
			}
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(body, &st)
			}
			if err != nil || !st.Alive {
				o.problem("acked connection %d lost: status %d, err %v: %s", id, status, err, body)
				break
			}
		}
		if alive := m.after.plane().Alive; alive != len(ledger) {
			o.problem("daemon reports %d alive connections, clients own %d", alive, len(ledger))
		}
	}
	if w.Replica {
		verifyStandby(l, m, fingerprint, o)
	}
}

// verifyStandby requires an unbroken lease and waits for the standby to
// replay the primary's journal to the end: its audited state fingerprint
// must become bit-identical to the primary's.
func verifyStandby(l *live, m *measured, primaryFP string, o *outcome) {
	if m.after.Replica == nil {
		o.problem("primary reports no replication block")
		return
	}
	if m.after.Replica.LeaseLost {
		o.problem("primary lost its replication lease")
	}
	standby := l.dep.Procs[1].URL
	var inv struct {
		OK          bool   `json:"ok"`
		Fingerprint string `json:"fingerprint"`
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		err := getJSON(standby+"/v1/invariants", &inv)
		if err == nil && inv.OK && inv.Fingerprint != "" && inv.Fingerprint == primaryFP {
			return
		}
		if time.Now().After(deadline) {
			o.problem("standby did not converge on the primary's state: ok=%v err=%v fingerprint %q, primary %q", inv.OK, err, inv.Fingerprint, primaryFP)
			return
		}
	}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}
