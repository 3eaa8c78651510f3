// Command benchmark is the repository's performance reference: six
// named workloads, end-to-end metrics measured with tracing off, and a
// per-module layer split from a separate traced run. README.md in this
// directory is the manual; BENCHMARK.json at the repository root is the
// contract a driver runs it under.
//
//	go run -C benchmark . [-workload W] [-seed N] [-seconds S] [-trace 0|1]
//	                      [-runs R] [-smoke] [-out file.json]
//	go run -C benchmark . -compare A.json B.json
//	go run -C benchmark . -spread 10 [-workload W]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// env is the header every result file carries.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Rev        string `json:"rev"`
	Race       bool   `json:"race"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Runs       int    `json:"runs"` // 0: as many as fit in Seconds, at least minRuns
	Smoke      bool   `json:"smoke,omitempty"`
}

// document is a result file: -out writes it, -compare reads two.
type document struct {
	Env     env       `json:"env"`
	Results []outcome `json:"results"`
}

// pinProcs pins GOMAXPROCS to min(nproc, 4) and refuses to record on a
// build or a setting that would not show the program's own speed.
func pinProcs() (int, error) {
	if raceEnabled {
		return 0, fmt.Errorf("built with -race: timings under the race detector are not the program's")
	}
	ncpu := runtime.NumCPU()
	if s := os.Getenv("GOMAXPROCS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > ncpu {
			return 0, fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available: threads would time-share", n, ncpu)
		}
	}
	procs := min(ncpu, 4)
	runtime.GOMAXPROCS(procs)
	return procs, nil
}

func revision() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "all", "workload to run, or all (each in its own child process)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 15, "how long one invocation measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from traced runs")
	runs := fs.Int("runs", 0, "exact number of timed runs (0: fill -seconds, at least 5)")
	smoke := fs.Bool("smoke", false, "tiny inputs, one run: checks the harness, records nothing")
	out := fs.String("out", "", "write the results (and <out>.<workload>.trace.json) here")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	spreadN := fs.Int("spread", 0, "run each workload this many times on consecutive seeds and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	procs, err := pinProcs()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: refusing to record:", err)
		return 2
	}
	e := env{NumCPU: runtime.NumCPU(), GoMaxProcs: procs, Go: runtime.Version(), Rev: revision(),
		Race: raceEnabled, Seed: *seed, Seconds: *seconds, Runs: *runs, Smoke: *smoke}
	if *smoke && *runs == 0 {
		e.Runs = 1
	}

	w, ok := findWorkload(*workloadName)
	if !ok && *workloadName != "all" {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
		return 2
	}
	switch {
	case *spreadN > 0:
		return runSpread(e, *spreadN, *workloadName, stdout, stderr)
	case ok:
		return runOne(w, e, *trace == 1, *out, stdout, stderr)
	}
	return runAll(e, *out, stdout, stderr)
}

// runOne measures one workload in this process and prints every metric
// by name with its unit, then the machine-read result as the last line.
func runOne(w workload, e env, traced bool, out string, stdout, stderr io.Writer) int {
	cfg := config{w: w, seed: e.Seed, seconds: float64(e.Seconds), runs: e.Runs, smoke: e.Smoke, log: stdout}
	mode := "end-to-end, tracing off"
	if traced {
		mode = "per-layer, traced"
		if out != "" {
			cfg.tracePath = tracePathFor(out, w)
		}
	}
	fmt.Fprintf(stdout, "%s (%s): num_cpu=%d gomaxprocs=%d go=%s rev=%s seed=%d\n",
		w.name, mode, e.NumCPU, e.GoMaxProcs, e.Go, e.Rev, e.Seed)
	measure := measureEndToEnd
	if traced {
		measure = measureLayers
	}
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	res.Traced = traced
	printMetrics(stdout, res.Metrics)
	if out != "" {
		if err := writeJSON(out, document{Env: e, Results: []outcome{res}}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, resultLine(res, traced))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		if m.NA {
			fmt.Fprintf(w, "  %-36s %14s %-6s\n", m.Name, "n/a", m.Unit)
			continue
		}
		line := fmt.Sprintf("  %-36s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if m.N > 1 {
			line += fmt.Sprintf(" q1 %.6g q3 %.6g n %d", m.Q1, m.Q3, m.N)
		}
		if m.TailLabel != "" {
			line += fmt.Sprintf(" %s %.6g", m.TailLabel, m.Tail)
		}
		if m.Base != "" {
			line += " (" + m.Base + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// resultLine renders the one JSON object a driver reads from the last
// line of standard output: the bounded end-to-end metrics of a
// tracing-off run, or every other metric of a traced run. n/a is -1
// there, because every value must be a number.
func resultLine(res outcome, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, map[string]value{}}
	for _, m := range res.Metrics {
		// A tracing-off outcome also carries the gates; they go on the
		// traced line, with the other unbounded metrics.
		if d, _ := lookup(m.Name); !traced && d.class != bounded {
			continue
		}
		v := m.Value
		if m.NA {
			v = -1
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// child runs one workload in a fresh process, so peak RSS, heap and GC
// state are the workload's own, and returns its outcome. The child's
// result file lives in a scratch directory under the working directory
// for as long as the call; its Chrome trace, if out is set, is kept as
// <out stem>.<workload>.trace.json.
func child(w workload, e env, traced bool, out string, echo io.Writer) (outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	result := filepath.Join(dir, "result.json")
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(e.Seed), "-seconds", fmt.Sprint(e.Seconds),
		"-runs", fmt.Sprint(e.Runs), "-out", result}
	if traced {
		args = append(args, "-trace", "1")
	}
	if e.Smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = echo, echo
	runErr := cmd.Run()
	doc, err := loadDocument(result)
	if err != nil || len(doc.Results) != 1 {
		return outcome{}, fmt.Errorf("%s: no result (exit: %v, result file: %v)", w.name, runErr, err)
	}
	if traced && out != "" {
		if err := os.Rename(tracePathFor(result, w), tracePathFor(out, w)); err != nil {
			return outcome{}, err
		}
	}
	return doc.Results[0], nil
}

// tracePathFor names the Chrome trace written beside a result file.
func tracePathFor(out string, w workload) string {
	return strings.TrimSuffix(out, filepath.Ext(out)) + "." + w.name + ".trace.json"
}

// runAll is the whole benchmark: every workload, tracing off and then
// traced, each in a child process.
func runAll(e env, out string, stdout, stderr io.Writer) int {
	doc := document{Env: e}
	code := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := child(w, e, traced, out, stdout)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			doc.Results = append(doc.Results, res)
		}
	}
	if out != "" {
		if err := writeJSON(out, doc); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}
