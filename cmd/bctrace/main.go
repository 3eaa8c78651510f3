// Command bctrace analyzes recorded execution traces (the JSONL files
// the obs.WriteJSONL API and bcctl -trace/-cluster-trace produce)
// offline: volume accounting, load imbalance, per-round latency and
// critical-path blame, invariant checking, and canonical comparison of
// two runs.
//
// Usage:
//
//	bctrace summary trace.jsonl [more.jsonl ...]
//	bctrace imbalance trace.jsonl [more.jsonl ...]
//	bctrace rounds trace.jsonl [more.jsonl ...]
//	bctrace check [-H max-distance] trace.jsonl
//	bctrace diff a.jsonl b.jsonl
//	bctrace merge [-o merged.jsonl] [-check] host0.jsonl host1.jsonl ...
//
// summary, imbalance, and rounds stream the traces through
// obs.EventReader, so they handle detail traces far larger than
// memory; check, diff, and merge load whole files (their invariants
// are global). All three streaming commands accept the per-host files
// of one cluster run: summary and imbalance add per-host breakdowns,
// and rounds reads a cluster run's per-host files exactly as it reads
// their merge. merge aligns per-host clocks on the exchange barriers
// and writes the one deterministic cluster trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mrbc/internal/obs"
	"mrbc/internal/obs/merge"
)

func usage(stderr io.Writer) {
	fmt.Fprint(stderr, `usage: bctrace <command> [flags] <trace.jsonl>

commands:
  summary    per-phase volume totals and encoding-format counts
             (many per-host files: adds a per-host breakdown)
  imbalance  per-host compute load and the max/mean imbalance ratio
  rounds     per-round latency, critical-path blame, exchange time
             vs. time hidden behind pipelined compute, and the
             slowest rounds (a cluster run's per-host files or their
             merge)
  check      verify the Lemma 8 round bounds and reversal symmetry
  diff       compare two traces canonically, report first divergence
  merge      align per-host trace clocks on the exchange barriers and
             write one deterministic cluster trace (-check proves
             conservation, pairing, and the global round bound)
`)
}

// realMain is main with its streams injected so the command paths are
// unit-testable; it returns the process exit code (0 ok, 1 failed
// check/diff or bad input, 2 usage).
func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "summary":
		return streamCmd(rest, stdout, stderr, runSummary)
	case "imbalance":
		return streamCmd(rest, stdout, stderr, runImbalance)
	case "rounds":
		return streamCmd(rest, stdout, stderr, runRounds)
	case "check":
		return runCheck(rest, stdout, stderr)
	case "diff":
		return runDiff(rest, stdout, stderr)
	case "merge":
		return runMerge(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "bctrace: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
}

// streamCmd opens the trace arguments (one or more — a cluster run's
// per-host files stream as one concatenated sequence; EventReader
// swallows the interior headers) and feeds the events, one at a time,
// to an accumulating subcommand.
func streamCmd(args []string, stdout, stderr io.Writer, run func(*obs.EventReader, io.Writer) error) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "bctrace: expected at least one trace file")
		return 2
	}
	readers := make([]io.Reader, 0, len(args))
	for _, path := range args {
		if strings.HasPrefix(path, "-") {
			fmt.Fprintf(stderr, "bctrace: unknown flag %s (this command takes only trace files)\n", path)
			return 2
		}
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "bctrace:", err)
			return 1
		}
		defer f.Close()
		readers = append(readers, f)
	}
	if err := run(obs.NewEventReader(readers...), stdout); err != nil {
		fmt.Fprintln(stderr, "bctrace:", err)
		return 1
	}
	return 0
}

// drain folds every event of the stream into the given observers.
func drain(er *obs.EventReader, observe func(obs.Event)) (int, error) {
	n := 0
	for {
		e, err := er.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		observe(e)
		n++
	}
}

func runSummary(er *obs.EventReader, out io.Writer) error {
	var t obs.Totals
	perHost := make(map[int32]*obs.Totals)
	var origins []int32
	unstamped := false
	n, err := drain(er, func(e obs.Event) {
		t.Observe(e)
		if e.Origin == 0 {
			unstamped = true
			return
		}
		ht, ok := perHost[e.Origin]
		if !ok {
			ht = &obs.Totals{}
			perHost[e.Origin] = ht
			origins = append(origins, e.Origin)
		}
		ht.Observe(e)
	})
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("trace is empty")
	}
	fmt.Fprintf(out, "events          %d\n", n)
	fmt.Fprintf(out, "pack.bytes      %d\n", t.PackBytes)
	fmt.Fprintf(out, "pack.messages   %d\n", t.PackMessages)
	fmt.Fprintf(out, "unpack.bytes    %d\n", t.UnpackBytes)
	fmt.Fprintf(out, "unpack.messages %d\n", t.UnpackMessages)
	fmt.Fprintf(out, "format.dense    %d\n", t.Dense)
	fmt.Fprintf(out, "format.sparse   %d\n", t.Sparse)
	fmt.Fprintf(out, "format.all      %d\n", t.All)
	if t.Retries > 0 {
		fmt.Fprintf(out, "transport.retries       %d\n", t.Retries)
		fmt.Fprintf(out, "transport.retry_bytes   %d\n", t.RetryBytes)
	}
	if len(origins) > 0 {
		sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
		fmt.Fprintf(out, "host  pack.bytes    pack.msgs   unpack.bytes  unpack.msgs\n")
		for _, o := range origins {
			ht := perHost[o]
			fmt.Fprintf(out, "%-4d  %-12d  %-10d  %-12d  %d\n",
				o-1, ht.PackBytes, ht.PackMessages, ht.UnpackBytes, ht.UnpackMessages)
		}
	}
	if t.PackBytes != t.UnpackBytes || t.PackMessages != t.UnpackMessages {
		// One host's slice of an SPMD run legitimately sends to peers
		// whose receipts live in THEIR files; the balance only closes
		// over the full set.
		if len(origins) == 1 && !unstamped {
			fmt.Fprintf(out, "note: single-host slice; cross-host balance needs every host's file (or bctrace merge)\n")
			return nil
		}
		return fmt.Errorf("pack/unpack accounting mismatch: sent (%d B, %d msgs) vs received (%d B, %d msgs) — trace is truncated or corrupt",
			t.PackBytes, t.PackMessages, t.UnpackBytes, t.UnpackMessages)
	}
	return nil
}

// formatG renders a float the way strconv's shortest representation
// does, so printed ratios compare exactly against computed ones.
func formatG(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func runImbalance(er *obs.EventReader, out io.Writer) error {
	var a obs.ImbalanceAccum
	if _, err := drain(er, a.Observe); err != nil {
		return err
	}
	r := a.Report()
	if r.Phases == 0 {
		return fmt.Errorf("trace carries no compute phases")
	}
	var total int64
	for _, h := range r.PerHost {
		total += h.ComputeNs
	}
	fmt.Fprintf(out, "host  compute        share\n")
	for _, h := range r.PerHost {
		share := float64(h.ComputeNs) / float64(total)
		fmt.Fprintf(out, "%-4d  %-13s  %5.1f%%\n", h.Host, time.Duration(h.ComputeNs), 100*share)
	}
	fmt.Fprintf(out, "phases         %d\n", r.Phases)
	fmt.Fprintf(out, "imbalance.mean %s\n", formatG(r.Mean))
	fmt.Fprintf(out, "imbalance.max  %s\n", formatG(r.MaxRatio))
	return nil
}

// slowestRounds is how many rounds, ranked by bounding busy time,
// rounds lists.
const slowestRounds = 10

func runRounds(er *obs.EventReader, out io.Writer) error {
	var a obs.RoundAccum
	if _, err := drain(er, a.Observe); err != nil {
		return err
	}
	r := a.Report()
	// Phases recorded before the first BeginRound (per-batch setup
	// computes) carry round 0; they are work but not a BSP round, so
	// report them separately and keep the round count aligned with
	// Stats.Rounds.
	if len(r.Setup) > 0 {
		var setupNs int64
		for _, c := range r.Setup {
			setupNs += c.WallNs
		}
		fmt.Fprintf(out, "setup      %s (outside any round)\n", time.Duration(setupNs))
	}
	if len(r.Rounds) == 0 {
		return fmt.Errorf("trace carries no in-round phase events")
	}
	// Latency histogram over the standard duration buckets.
	counts := make([]int, len(obs.DurationBuckets)+1)
	var totalNs, maxNs, exchNs, hiddenNs int64
	for _, rc := range r.Rounds {
		sec := float64(rc.WallNs) / 1e9
		i := sort.SearchFloat64s(obs.DurationBuckets, sec)
		counts[i]++
		totalNs += rc.WallNs
		maxNs = max(maxNs, rc.WallNs)
		exchNs += rc.ExchangeNs
		hiddenNs += rc.HiddenNs
	}
	fmt.Fprintf(out, "rounds     %d\n", len(r.Rounds))
	fmt.Fprintf(out, "wall.total %s\n", time.Duration(totalNs))
	fmt.Fprintf(out, "wall.mean  %s\n", time.Duration(totalNs/int64(len(r.Rounds))))
	fmt.Fprintf(out, "wall.max   %s\n", time.Duration(maxNs))
	fmt.Fprintln(out, "latency histogram (round wall time):")
	for i, c := range counts {
		if c == 0 {
			continue
		}
		bound := "+Inf"
		if i < len(obs.DurationBuckets) {
			bound = formatG(obs.DurationBuckets[i])
		}
		fmt.Fprintf(out, "  le %-6s %d\n", bound+"s", c)
	}
	fmt.Fprintln(out, "critical-path blame (rounds bounded):")
	for _, hb := range r.Blame {
		fmt.Fprintf(out, "  host %-4d %4d rounds  %-13s  %5.1f%%\n",
			hb.Host, hb.Rounds, time.Duration(hb.BoundNs), 100*hb.Share)
	}
	// Overlap: the exchange wall time the rounds kept on the critical
	// path vs. the wait the pipelined exchange hid behind other batches'
	// compute (zero on non-pipelined traces).
	fmt.Fprintf(out, "exchange.total %s\n", time.Duration(exchNs))
	fmt.Fprintf(out, "hidden.total   %s\n", time.Duration(hiddenNs))
	eff := 0.0
	if tot := exchNs + hiddenNs; tot > 0 {
		eff = float64(hiddenNs) / float64(tot)
	}
	fmt.Fprintf(out, "overlap.efficiency %s\n", formatG(eff))
	ranked := append([]obs.RoundCost(nil), r.Rounds...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].BoundNs > ranked[j].BoundNs })
	ranked = ranked[:min(slowestRounds, len(ranked))]
	fmt.Fprintln(out, "slowest rounds (epoch round host bound mean exchange hidden):")
	for _, rc := range ranked {
		fmt.Fprintf(out, "  %-3d %-5d %-4d %-13s %-13s %-13s %s\n",
			rc.Epoch, rc.Round, rc.Host, time.Duration(rc.BoundNs),
			time.Duration(rc.MeanNs), time.Duration(rc.ExchangeNs), time.Duration(rc.HiddenNs))
	}
	return nil
}

func runCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bctrace check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	h := fs.Int("H", 0, "maximum finite distance from any batched source; 0 infers, per epoch, the smallest value the forward spans admit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "bctrace: check expects exactly one trace file")
		return 2
	}
	events, ok := loadTrace(fs.Arg(0), stderr)
	if !ok {
		return 1
	}
	if err := obs.CheckRoundBounds(events, *h); err != nil {
		fmt.Fprintln(stderr, "bctrace: round bounds:", err)
		return 1
	}
	if *h > 0 {
		fmt.Fprintf(stdout, "round bounds ok (H=%d)\n", *h)
	} else {
		fmt.Fprintln(stdout, "round bounds ok (H inferred per epoch as the largest forward span minus k)")
	}
	detail := false
	for _, e := range events {
		if e.Kind == obs.KindSend {
			detail = true
			break
		}
	}
	if !detail {
		fmt.Fprintln(stdout, "reversal skipped (phase-level trace; record at obs.LevelDetail through mrbcdist or sbbc Options.Trace for send events)")
		return 0
	}
	if err := obs.CheckReversal(events); err != nil {
		fmt.Fprintln(stderr, "bctrace: reversal:", err)
		return 1
	}
	fmt.Fprintln(stdout, "reversal symmetry ok")
	return 0
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bctrace: diff expects exactly two trace files")
		return 2
	}
	a, ok := loadTrace(args[0], stderr)
	if !ok {
		return 1
	}
	b, ok := loadTrace(args[1], stderr)
	if !ok {
		return 1
	}
	d := obs.Diff(a, b)
	if d.Index < 0 {
		fmt.Fprintf(stdout, "traces are canonically identical (%d events)\n", len(obs.Canonical(a)))
		return 0
	}
	fmt.Fprintf(stdout, "traces diverge at canonical event %d:\n", d.Index)
	describe := func(name string, e *obs.Event) {
		if e == nil {
			fmt.Fprintf(stdout, "  %s: <absent — trace ended>\n", name)
			return
		}
		fmt.Fprintf(stdout, "  %s: %+v\n", name, *e)
	}
	describe(args[0], d.A)
	describe(args[1], d.B)
	return 1
}

// runMerge aligns per-host traces into one cluster trace. -check
// additionally proves the cross-host invariants on the converged
// epoch: conservation (sent == received per link, per encoding),
// send/recv pairing, and the global Lemma 8 round bound.
func runMerge(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bctrace merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the merged cluster trace here (default: stdout)")
	check := fs.Bool("check", false, "prove conservation, pairing, and the global round bound on the merged trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "bctrace: merge expects at least one per-host trace file")
		return 2
	}
	m, err := merge.MergeFiles(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "bctrace:", err)
		return 1
	}
	if *check {
		fin, cons, err := m.CheckFinalEpoch()
		if err != nil {
			fmt.Fprintln(stderr, "bctrace:", err)
			return 1
		}
		fmt.Fprintf(stderr, "check ok: %d links, %d bytes, %d messages conserved exactly (epoch %d)\n",
			cons.Links, cons.Bytes, cons.Messages, fin)
	}
	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "bctrace:", err)
			return 1
		}
		defer f.Close()
		w = f
		fmt.Fprintf(stdout, "merged %d events from %d hosts (epochs %v) -> %s\n",
			len(m.Events), m.Report.Hosts, m.Report.Epochs, *out)
		m.Report.WriteSummary(stdout)
	}
	if err := m.Encode(w); err != nil {
		fmt.Fprintln(stderr, "bctrace:", err)
		return 1
	}
	return 0
}

func loadTrace(path string, stderr io.Writer) ([]obs.Event, bool) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "bctrace:", err)
		return nil, false
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		fmt.Fprintln(stderr, "bctrace:", err)
		return nil, false
	}
	return events, true
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}
