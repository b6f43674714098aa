package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"drqos/bench/script"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, table := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range table {
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q is malformed", m.name)
			}
			if !unitRE.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q is malformed", m.name, m.unit)
			}
			if seen[m.name] {
				t.Errorf("metric name %q is used twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for _, w := range script.Workloads() {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or collides with a metric", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}

// BENCHMARK.json is written by hand; it must name exactly the workloads and
// metrics the code produces, with the same units.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Why string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	ws := script.Workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
	}
}

func TestPerStepMediansIgnoreASlowStep(t *testing.T) {
	t0 := time.Unix(0, 0)
	m := &measured{}
	// Five steps of 100 ops: four take 1s and 500ms of CPU, one takes 3s and 2s of CPU.
	at, cpu := t0, time.Duration(0)
	m.steps = append(m.steps, step{at: at, cpu: cpu, speed: 1})
	for i := 1; i <= 5; i++ {
		d, c := time.Second, 500*time.Millisecond
		if i == 3 {
			d, c = 3*time.Second, 2*time.Second
		}
		at, cpu = at.Add(d), cpu+c
		m.steps = append(m.steps, step{at: at, cpu: cpu, done: 100 * i, speed: 1})
	}
	m.steps = append(m.steps, step{at: at, cpu: cpu, done: 500, speed: 1}) // the closing tick lands on a boundary
	rate, cost := m.perStep(script.Workload{})
	if rate != 100 || cost != 5 {
		t.Errorf("perStep = %v ops/s, %v ms/op; want 100 and 5", rate, cost)
	}
}

func TestTimingsAreScaledToNominalSpeedUnlessTimerBound(t *testing.T) {
	cpuBound, timerBound := script.Workload{}, script.Workload{TimerBound: true}
	if got := atNominalSpeed(cpuBound, 3*time.Second, 1.5); got != 2*time.Second {
		t.Errorf("3s measured at speed factor 1.5 = %v at nominal speed, want 2s", got)
	}
	if got := atNominalSpeed(timerBound, 3*time.Second, 1.5); got != 3*time.Second {
		t.Errorf("timer-bound 3s = %v, want it as measured", got)
	}
	// One step of 100 ops in 1s while the machine ran at half speed.
	m := &measured{steps: []step{{at: time.Unix(0, 0), speed: 1}, {at: time.Unix(1, 0), done: 100, speed: 2}}}
	if rate, _ := m.perStep(cpuBound); rate != 200 {
		t.Errorf("rate = %v ops/s, want 200", rate)
	}
	if rate, _ := m.perStep(timerBound); rate != 100 {
		t.Errorf("timer-bound rate = %v ops/s, want 100", rate)
	}
}
