package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// contract is BENCHMARK.json at the repository root.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesHarness keeps BENCHMARK.json, the metric
// dictionary and the workload table in step.
func TestContractMatchesHarness(t *testing.T) {
	c := loadContract(t)
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d outside [1, 60]", c.RunSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness has %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	var wantE2E, wantLayer []def
	seen := map[string]bool{}
	for _, d := range dictionary {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %v", d.name, nameRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s is in the dictionary twice", d.name)
		}
		seen[d.name] = true
		if d.class == bounded {
			wantE2E = append(wantE2E, d)
		} else {
			wantLayer = append(wantLayer, d)
		}
	}
	check := func(kind string, got []contractMetric, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the dictionary", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, dictionary has %s [%s] %s", kind, i, g, d.name, d.unit, better)
			}
			switch {
			case d.class != bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			case d.class == bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json %v, in the dictionary %v (must be in (0, 0.25])", d.name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, wantE2E)
	check("per_layer", c.PerLayer, wantLayer)
	if !seen["setup_s"] {
		t.Error("the contract requires a setup_s metric")
	}
}

// TestReadmeNamesEverything: the README is the metric dictionary's
// human half; a metric or workload missing from it is undocumented.
func TestReadmeNamesEverything(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dictionary {
		if !bytes.Contains(data, []byte("`"+d.name+"`")) {
			t.Errorf("README.md does not document metric %s", d.name)
		}
	}
	for _, w := range workloads {
		if !bytes.Contains(data, []byte("`"+w.name+"`")) {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
}

func TestRefusesToRecord(t *testing.T) {
	var stderr bytes.Buffer
	if raceEnabled {
		if code := run([]string{"-workload", "rmat_shared", "-smoke"}, io.Discard, &stderr); code == 0 {
			t.Fatal("the harness recorded under the race detector")
		}
		if !strings.Contains(stderr.String(), "race") {
			t.Fatalf("refusal does not name the race detector: %q", stderr.String())
		}
		return
	}
	t.Setenv("GOMAXPROCS", fmt.Sprint(runtime.NumCPU()+1))
	if code := run([]string{"-workload", "rmat_shared", "-smoke"}, io.Discard, &stderr); code == 0 {
		t.Fatal("the harness recorded with GOMAXPROCS above the CPU count")
	}
	if !strings.Contains(stderr.String(), "GOMAXPROCS") {
		t.Fatalf("refusal does not name GOMAXPROCS: %q", stderr.String())
	}
}

// TestSmoke runs every workload at smoke size, tracing off and traced,
// twice each, through the same entry point a driver uses, and checks
// the result line against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("the harness refuses to record under the race detector (TestRefusesToRecord)")
	}
	c := loadContract(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			var first map[string]float64
			for rep := 0; rep < 2; rep++ {
				got := smokeRun(t, w.name, traced)
				if len(got) != len(want) {
					t.Errorf("%s traced=%v: %d metrics on the result line, BENCHMARK.json names %d", w.name, traced, len(got), len(want))
				}
				for _, m := range want {
					if _, ok := got[m.Name]; !ok {
						t.Errorf("%s traced=%v: metric %s missing from the result line", w.name, traced, m.Name)
					}
				}
				if traced {
					if got["failed_share"] != 0 || got["obs.dropped"] > 0 || !(got["max_abs_err"] <= errTolerance) {
						t.Errorf("%s: failed_share %v, obs.dropped %v, max_abs_err %v", w.name,
							got["failed_share"], got["obs.dropped"], got["max_abs_err"])
					}
					// -1 is n/a; a measured self time is never negative.
					for _, name := range []string{"mrbcdist.unattributed_s", "sbbc.unattributed_s"} {
						if v := got[name]; v < 0 && v != -1 {
							t.Errorf("%s: %s = %v", w.name, name, v)
						}
					}
					if first == nil {
						first = got
					}
					for _, name := range []string{"rounds", "comm_bytes", "comm_messages", "dgalois.exchanges", "dgalois.compute_phases", "obs.events"} {
						if got[name] != first[name] {
							t.Errorf("%s: %s = %v on the second smoke run, %v on the first", w.name, name, got[name], first[name])
						}
					}
				}
			}
		}
	}
}

// TestHarnessUnderRaceDetector drives the harness's own goroutines (the
// SPMD hosts, the lockstep probes, the transport timers) under the
// race detector, going around the refusal: nothing is recorded.
func TestHarnessUnderRaceDetector(t *testing.T) {
	if !raceEnabled {
		t.Skip("needs -race; TestSmoke covers the same paths without it")
	}
	for _, w := range workloads {
		cfg := config{w: w, seed: 7, seconds: 1, runs: 1, smoke: true, log: io.Discard}
		for _, measure := range []func(config) (outcome, error){measureEndToEnd, measureLayers} {
			if res, err := measure(cfg); err != nil || !res.Correct {
				t.Errorf("%s: correct=%v err=%v", w.name, res.Correct, err)
			}
		}
	}
}

// smokeRun runs one workload through run() and returns the values on
// its result line, having checked the line's shape and units.
func smokeRun(t *testing.T, name string, traced bool) map[string]float64 {
	t.Helper()
	args := []string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0", "-smoke"}
	if traced {
		args[7] = "1"
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", name, err, lines[len(lines)-1])
	}
	if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
		t.Fatalf("%s: result line %s", name, lines[len(lines)-1])
	}
	out := map[string]float64{}
	for n, m := range line.Metrics {
		d, ok := lookup(n)
		if !ok || m.Value == nil || m.Unit != d.unit || m.Unit == "" {
			t.Errorf("%s: metric %s on the result line: value %v unit %q", name, n, m.Value, m.Unit)
			continue
		}
		out[n] = *m.Value
	}
	// Every metric is also printed by name, once, in the readable part.
	for n := range out {
		if got := strings.Count(stdout.String(), "\n  "+n+" "); got != 1 {
			t.Errorf("%s: metric %s printed %d times", name, n, got)
		}
	}
	return out
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{5, 3, 8, 1, 9, 2, 7}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if v, label, ok := tail(make([]float64, 1000)); !ok || label != "p99" || v != 0 {
		t.Errorf("tail of 1000 samples = %v %q %v, want p99", v, label, ok)
	}
	if _, _, ok := tail(make([]float64, 19)); ok {
		t.Error("19 samples have no percentile with ten samples beyond it")
	}
}

func TestCompareVerdicts(t *testing.T) {
	d, _ := lookup("wall_s")
	steady := func(v float64) metric { return metric{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 7} }
	noisy := metric{Value: 1, Q1: 0.8, Q3: 1.2, N: 7}
	for _, c := range []struct {
		a, b metric
		want string
	}{
		{steady(1), steady(1 + d.bound/2), "within"},
		{steady(1), steady(0.5), "within"},
		{steady(1), steady(1 + 2*d.bound), "worse"},
		{steady(1), noisy, "unresolved"},
	} {
		if got := verdict(d, c.a, c.b, true); got != c.want {
			t.Errorf("wall_s %v -> %v: %s, want %s", c.a.Value, c.b.Value, got, c.want)
		}
	}
	rounds, _ := lookup("rounds")
	if got := verdict(rounds, metric{Value: 150}, metric{Value: 151}, true); got != "differs" {
		t.Errorf("rounds 150 -> 151 on one seed: %s, want differs", got)
	}
	if got := verdict(rounds, metric{Value: 150}, metric{Value: 150}, true); got != "identical" {
		t.Errorf("rounds 150 -> 150: %s, want identical", got)
	}
	errM, _ := lookup("max_abs_err")
	if got := verdict(errM, metric{}, metric{Value: 1e-6}, true); got != "worse" {
		t.Errorf("max_abs_err 1e-6: %s, want worse", got)
	}
}
