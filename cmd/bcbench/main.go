// Command bcbench regenerates the paper's evaluation (Section 5):
// every table and figure, on the synthetic input suite documented in
// DESIGN.md §3, the round-model check (model), and the exact
// bytes/messages/rounds gate against the committed BENCH_regress.json
// (regress). Timing is measured by the benchmark/ harness, not here.
//
// Usage:
//
//	bcbench -exp table1
//	bcbench -exp table2 -scale tiny
//	bcbench -exp regress -scale tiny
//	bcbench -exp all -cpuprofile cpu.pprof
//	bcbench -exp summary -serve 127.0.0.1:9464
//
// Profiling hooks (-cpuprofile, -memprofile, -trace) wrap whichever
// experiment runs. -input applies to the paper experiments only;
// -baseline to regress and regress-baseline only. -serve exposes live
// telemetry (/metrics, /statz, /progressz, /debug/pprof) for the
// duration of the run; -linger keeps the server up afterwards so a
// scraper can collect the final state.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sort"
	"strings"
	"time"

	"mrbc/internal/bench"
	"mrbc/internal/obs"
	"mrbc/internal/obs/serve"
)

// runCtx carries every experiment's shared inputs, so adding a new
// knob does not ripple through each runner's signature.
type runCtx struct {
	inputs      []bench.Input
	scale       bench.Scale
	baselineDir string // -baseline: directory holding BENCH_regress.json
}

// experiments maps every -exp value to its runner. Runners print to
// out and return an error for regression-guard failures (which turn
// into a non-zero exit without a usage message).
var experiments = map[string]func(out io.Writer, ctx runCtx) error{
	"table1": func(out io.Writer, ctx runCtx) error {
		fmt.Fprintln(out, bench.FormatTable1(bench.Table1(ctx.inputs, ctx.scale)))
		return nil
	},
	"table2": func(out io.Writer, ctx runCtx) error {
		fmt.Fprintln(out, bench.FormatTable2(bench.Table2(ctx.inputs, ctx.scale)))
		return nil
	},
	"fig1": func(out io.Writer, ctx runCtx) error {
		fmt.Fprintln(out, bench.FormatFigure1(bench.Figure1(ctx.inputs, ctx.scale)))
		return nil
	},
	"fig2a": func(out io.Writer, ctx runCtx) error {
		fmt.Fprintln(out, bench.FormatFigure2(bench.Figure2(ctx.inputs, "small", ctx.scale), "a"))
		return nil
	},
	"fig2b": func(out io.Writer, ctx runCtx) error {
		fmt.Fprintln(out, bench.FormatFigure2(bench.Figure2(ctx.inputs, "large", ctx.scale), "b"))
		return nil
	},
	"fig3": func(out io.Writer, ctx runCtx) error {
		fmt.Fprintln(out, bench.FormatFigure3(bench.Figure3(ctx.inputs, ctx.scale)))
		return nil
	},
	"model": func(out io.Writer, ctx runCtx) error {
		fmt.Fprintln(out, bench.FormatModel(bench.ModelCheck(ctx.inputs, ctx.scale)))
		return nil
	},
	"summary": func(out io.Writer, ctx runCtx) error {
		fmt.Fprintln(out, bench.FormatSummary(bench.Summarize(ctx.inputs, ctx.scale)))
		return nil
	},
	// Volume-regression gate: re-run the guarded configurations against
	// the committed BENCH_regress.json. Non-zero exit unless bytes,
	// messages and rounds match exactly; not in "all".
	"regress": func(out io.Writer, ctx runCtx) error {
		report, err := bench.RegressGuard(ctx.scale, ctx.baselineDir)
		if len(report.Rows) > 0 {
			fmt.Fprintln(out, bench.FormatRegressBench(report))
		}
		return err
	},
	// Regenerate BENCH_regress.json from the current build (after an
	// intentional protocol change); not in "all".
	"regress-baseline": func(out io.Writer, ctx runCtx) error {
		report := bench.RegressBench(ctx.scale)
		path := filepath.Join(ctx.baselineDir, bench.RegressBaselineFile)
		if err := bench.WriteRegressBaseline(path, report); err != nil {
			return err
		}
		fmt.Fprintln(out, bench.FormatRegressBench(report))
		fmt.Fprintf(out, "wrote %s\n", path)
		return nil
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
		exp         = fs.String("exp", "all", "experiment: "+validExperiments())
		scaleName   = fs.String("scale", "full", "workload scale: full | tiny")
		only        = fs.String("input", "", "restrict to a single input by name")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		tracePath   = fs.String("trace", "", "write a runtime/trace execution trace to this file")
		serveAddr   = fs.String("serve", "", "serve live telemetry (/metrics, /statz, /progressz, pprof) on this address while experiments run")
		linger      = fs.Duration("linger", 0, "keep the -serve endpoint up this long after the experiments finish")
		baselineDir = fs.String("baseline", ".", "directory holding the committed BENCH_regress.json; requires -exp regress or regress-baseline")
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
	// The regress experiments run a fixed configuration set against a
	// baseline; the paper experiments run the input suite. Refuse a
	// flag the chosen experiment would silently ignore.
	regress := *exp == "regress" || *exp == "regress-baseline"
	if *only != "" && regress {
		fmt.Fprintf(stderr, "bcbench: -input does not apply to -exp %s, which runs a fixed configuration set\n", *exp)
		return 1
	}
	baselineSet := false
	fs.Visit(func(f *flag.Flag) { baselineSet = baselineSet || f.Name == "baseline" })
	if baselineSet && !regress {
		fmt.Fprintf(stderr, "bcbench: -baseline only applies to -exp regress and regress-baseline (got -exp %s)\n", *exp)
		return 1
	}
	if *linger != 0 && *serveAddr == "" {
		fmt.Fprintln(stderr, "bcbench: -linger requires -serve")
		return 1
	}

	if *serveAddr != "" {
		reg := obs.NewRegistry()
		srv := serve.New(reg)
		bound, err := srv.Start(*serveAddr)
		if err != nil {
			fmt.Fprintln(stderr, "bcbench: -serve:", err)
			return 1
		}
		bench.Telemetry = reg
		fmt.Fprintf(stderr, "bcbench: serving telemetry on http://%s\n", bound)
		defer srv.Close()
		if *linger > 0 {
			defer time.Sleep(*linger)
		}
	}

	ctx := runCtx{inputs: bench.Suite(scale), scale: scale, baselineDir: *baselineDir}
	if *only != "" {
		in, err := bench.Find(ctx.inputs, *only)
		if err != nil {
			fmt.Fprintln(stderr, "bcbench:", err)
			return 1
		}
		ctx.inputs = []bench.Input{in}
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
		if err := experiments[name](stdout, ctx); err != nil {
			fmt.Fprintln(stderr, "bcbench:", err)
			return 1
		}
	}
	return 0
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}
