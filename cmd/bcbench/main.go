// Command bcbench regenerates the paper's evaluation (Section 5):
// every table and figure, on the synthetic input suite documented in
// DESIGN.md §3, plus the round-model check (model). Timing is measured
// by the benchmark/ harness; the exact volume gate is the tier-1 test
// TestCommittedRegressBaselineCurrent in internal/bench.
//
// Usage:
//
//	bcbench -exp table1
//	bcbench -exp table2 -scale tiny
//	bcbench -exp all -cpuprofile cpu.pprof
//
// Profiling hooks (-cpuprofile, -memprofile, -trace) wrap whichever
// experiment runs; -input restricts the suite to one input.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sort"
	"strings"

	"mrbc/internal/bench"
)

// experiments maps every -exp value to its runner, which renders its
// table or figure for the given inputs.
var experiments = map[string]func(inputs []bench.Input, scale bench.Scale) string{
	"table1": func(inputs []bench.Input, scale bench.Scale) string {
		return bench.FormatTable1(bench.Table1(inputs, scale))
	},
	"table2": func(inputs []bench.Input, scale bench.Scale) string {
		return bench.FormatTable2(bench.Table2(inputs, scale))
	},
	"fig1": func(inputs []bench.Input, scale bench.Scale) string {
		return bench.FormatFigure1(bench.Figure1(inputs, scale))
	},
	"fig2a": func(inputs []bench.Input, scale bench.Scale) string {
		return bench.FormatFigure2(bench.Figure2(inputs, "small", scale), "a")
	},
	"fig2b": func(inputs []bench.Input, scale bench.Scale) string {
		return bench.FormatFigure2(bench.Figure2(inputs, "large", scale), "b")
	},
	"fig3": func(inputs []bench.Input, scale bench.Scale) string {
		return bench.FormatFigure3(bench.Figure3(inputs, scale))
	},
	"model": func(inputs []bench.Input, scale bench.Scale) string {
		return bench.FormatModel(bench.ModelCheck(inputs, scale))
	},
	"summary": func(inputs []bench.Input, scale bench.Scale) string {
		return bench.FormatSummary(bench.Summarize(inputs, scale))
	},
}

// allSequence is the -exp all expansion: the paper's tables and
// figures, in presentation order.
var allSequence = []string{"table1", "table2", "fig1", "fig2a", "fig2b", "fig3", "model", "summary"}

func validExperiments() string {
	names := make([]string, 0, len(experiments)+1)
	for name := range experiments {
		names = append(names, name)
	}
	names = append(names, "all")
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// realMain is main with its dependencies injected, so the flag and
// validation paths are unit-testable. It returns the process exit code.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "experiment: "+validExperiments())
		scaleName  = fs.String("scale", "full", "workload scale: full | tiny")
		only       = fs.String("input", "", "restrict to a single input by name")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		tracePath  = fs.String("trace", "", "write a runtime/trace execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	scale := bench.Full
	switch *scaleName {
	case "full":
	case "tiny":
		scale = bench.Tiny
	default:
		fmt.Fprintf(stderr, "bcbench: unknown scale %q (valid: full, tiny)\n", *scaleName)
		return 1
	}

	names := []string{*exp}
	if *exp == "all" {
		names = allSequence
	} else if _, ok := experiments[*exp]; !ok {
		fmt.Fprintf(stderr, "bcbench: unknown experiment %q (valid: %s)\n", *exp, validExperiments())
		return 1
	}

	inputs := bench.Suite(scale)
	if *only != "" {
		in, err := bench.Find(inputs, *only)
		if err != nil {
			fmt.Fprintln(stderr, "bcbench:", err)
			return 1
		}
		inputs = []bench.Input{in}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "bcbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "bcbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, "bcbench:", err)
			return 1
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(stderr, "bcbench:", err)
			return 1
		}
		defer rtrace.Stop()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "bcbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "bcbench:", err)
			}
		}()
	}

	for _, name := range names {
		fmt.Fprintln(stdout, experiments[name](inputs, scale))
	}
	return 0
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}
