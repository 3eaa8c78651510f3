// Command bctrace analyzes recorded execution traces (the JSONL files
// bcbench -obs and the obs.WriteJSONL API produce) offline: volume
// accounting, load imbalance, per-round latency, invariant checking,
// and canonical comparison of two runs.
//
// Usage:
//
//	bctrace summary trace.jsonl [more.jsonl ...]
//	bctrace imbalance trace.jsonl [more.jsonl ...]
//	bctrace rounds [-overlap] trace.jsonl
//	bctrace check [-H max-distance] trace.jsonl
//	bctrace diff a.jsonl b.jsonl
//	bctrace merge [-o merged.jsonl] [-check] host0.jsonl host1.jsonl ...
//	bctrace crit [-top n] merged.jsonl   (or the per-host files)
//
// summary, imbalance, and rounds stream the traces through
// obs.EventReader, so they handle detail traces far larger than
// memory; check, diff, merge, and crit load whole files (their
// invariants are global). summary and imbalance accept many per-host
// files of one cluster run and report per-host breakdowns; merge
// aligns per-host clocks on the exchange barriers and writes the one
// deterministic cluster trace; crit attributes each round to the host
// that bounded it.
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
  rounds     per-round latency and the critical-path host
             (-overlap adds exchange time vs. time hidden behind
             pipelined compute per round)
  check      verify the Lemma 8 round bounds and reversal symmetry
  diff       compare two traces canonically, report first divergence
  merge      align per-host trace clocks on the exchange barriers and
             write one deterministic cluster trace (-check proves
             conservation, pairing, and the global round bound)
  crit       per-round critical-path attribution over a merged trace
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
		return runRoundsCmd(rest, stdout, stderr)
	case "check":
		return runCheck(rest, stdout, stderr)
	case "diff":
		return runDiff(rest, stdout, stderr)
	case "merge":
		return runMerge(rest, stdout, stderr)
	case "crit":
		return runCrit(rest, stdout, stderr)
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
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "bctrace:", err)
			return 1
		}
		defer f.Close()
		// The separating newline keeps a file that lost its trailing
		// newline (a host killed mid-run) from gluing its last line to
		// the next file's first; blank lines are skipped by the reader.
		readers = append(readers, f, strings.NewReader("\n"))
	}
	if err := run(obs.NewEventReader(io.MultiReader(readers...)), stdout); err != nil {
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

// runRoundsCmd parses rounds' flags and streams the trace.
func runRoundsCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bctrace rounds", flag.ContinueOnError)
	fs.SetOutput(stderr)
	overlap := fs.Bool("overlap", false, "additionally report per-round exchange time vs. the wait the pipelined exchange hid behind compute")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	return streamCmd(fs.Args(), stdout, stderr, func(er *obs.EventReader, out io.Writer) error {
		return runRounds(er, out, *overlap)
	})
}

func runRounds(er *obs.EventReader, out io.Writer, overlap bool) error {
	var a obs.RoundAccum
	if _, err := drain(er, a.Observe); err != nil {
		return err
	}
	r := a.Report()
	// Phases recorded before the first BeginRound (per-batch setup
	// computes) carry round 0; they are work but not a BSP round, so
	// report them separately and keep the round count aligned with
	// Stats.Rounds.
	if len(r.Rounds) > 0 && r.Rounds[0].Round == 0 {
		setup := r.Rounds[0]
		fmt.Fprintf(out, "setup      %s (outside any round)\n", time.Duration(setup.WallNs))
		if setup.SlowHost >= 0 {
			r.SlowestCount[setup.SlowHost]--
		}
		r.Rounds = r.Rounds[1:]
	}
	if len(r.Rounds) == 0 {
		return fmt.Errorf("trace carries no in-round phase events")
	}
	// Latency histogram over the standard duration buckets.
	counts := make([]int, len(obs.DurationBuckets)+1)
	var totalNs, maxNs int64
	for _, rc := range r.Rounds {
		sec := float64(rc.WallNs) / 1e9
		i := sort.SearchFloat64s(obs.DurationBuckets, sec)
		counts[i]++
		totalNs += rc.WallNs
		if rc.WallNs > maxNs {
			maxNs = rc.WallNs
		}
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
	// Critical path: which host was slowest, how often.
	hosts := make([]int32, 0, len(r.SlowestCount))
	for h := range r.SlowestCount {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	fmt.Fprintln(out, "critical-path host (rounds slowest):")
	for _, h := range hosts {
		fmt.Fprintf(out, "  host %-4d %d\n", h, r.SlowestCount[h])
	}
	if !overlap {
		return nil
	}
	// Overlap: the exchange wall time each round kept on the critical
	// path vs. the wait the pipelined exchange hid behind other batches'
	// compute (HiddenNs; zero everywhere on non-pipelined traces).
	fmt.Fprintln(out, "round  exchange      hidden        hidden-share")
	var exchNs, hiddenNs int64
	for _, rc := range r.Rounds {
		exchNs += rc.ExchangeNs
		hiddenNs += rc.HiddenNs
		share := 0.0
		if tot := rc.ExchangeNs + rc.HiddenNs; tot > 0 {
			share = float64(rc.HiddenNs) / float64(tot)
		}
		fmt.Fprintf(out, "%-5d  %-12s  %-12s  %5.1f%%\n",
			rc.Round, time.Duration(rc.ExchangeNs), time.Duration(rc.HiddenNs), 100*share)
	}
	fmt.Fprintf(out, "exchange.total %s\n", time.Duration(exchNs))
	fmt.Fprintf(out, "hidden.total   %s\n", time.Duration(hiddenNs))
	eff := 0.0
	if tot := exchNs + hiddenNs; tot > 0 {
		eff = float64(hiddenNs) / float64(tot)
	}
	fmt.Fprintf(out, "overlap.efficiency %s\n", formatG(eff))
	return nil
}

func runCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bctrace check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	h := fs.Int("H", 0, "maximum finite distance from any batched source; 0 infers the weakest consistent value from the trace")
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
	bound := *h
	if bound == 0 {
		// Without the graph there is no way to recover H, so infer the
		// weakest value consistent with the trace: the largest recorded
		// forward span. The per-batch 2(k+H)+1 bound then still rejects
		// structural overruns (extra rounds, bogus spans), and the
		// reversal check below is independent of H.
		for _, e := range events {
			if e.Kind == obs.KindBatch && int(e.FwdRounds) > bound {
				bound = int(e.FwdRounds)
			}
		}
		fmt.Fprintf(stdout, "H not given; inferred H=%d from the largest forward span\n", bound)
	}
	if err := obs.CheckRoundBounds(events, bound); err != nil {
		fmt.Fprintln(stderr, "bctrace: round bounds:", err)
		return 1
	}
	fmt.Fprintf(stdout, "round bounds ok (H=%d)\n", bound)
	detail := false
	for _, e := range events {
		if e.Kind == obs.KindSend {
			detail = true
			break
		}
	}
	if !detail {
		fmt.Fprintln(stdout, "reversal skipped (phase-level trace; record with -obs for send events)")
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
		fin := merge.FinalEpoch(m.Events)
		evs := merge.EpochEvents(m.Events, fin)
		cons, err := merge.CheckConservation(evs)
		if err != nil {
			fmt.Fprintln(stderr, "bctrace: conservation:", err)
			return 1
		}
		if err := merge.CheckPairing(evs); err != nil {
			fmt.Fprintln(stderr, "bctrace: pairing:", err)
			return 1
		}
		if err := merge.CheckRoundBoundsGlobal(evs, 0); err != nil {
			fmt.Fprintln(stderr, "bctrace: round bounds:", err)
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
		if m.Report.DedupedBatches > 0 {
			fmt.Fprintf(stdout, "deduplicated %d SPMD batch summaries\n", m.Report.DedupedBatches)
		}
		for _, rb := range m.Report.Rollbacks {
			fmt.Fprintf(stdout, "rollback: epoch %d resumed from batch %d\n", rb.Epoch, rb.Batch)
		}
		fmt.Fprintf(stdout, "committed %d bytes / %d messages", m.Report.CommittedBytes, m.Report.CommittedMessages)
		if m.Report.DiscardedBytes > 0 || m.Report.DiscardedMessages > 0 {
			fmt.Fprintf(stdout, "; discarded %d bytes / %d messages to rollbacks", m.Report.DiscardedBytes, m.Report.DiscardedMessages)
		}
		fmt.Fprintln(stdout)
	}
	if err := m.Encode(w); err != nil {
		fmt.Fprintln(stderr, "bctrace:", err)
		return 1
	}
	return 0
}

// runCrit attributes each round of a merged cluster trace to the host
// that bounded it. Given several files, they are merged in memory
// first.
func runCrit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bctrace crit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "list the n slowest bounded rounds (0: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "bctrace: crit expects a merged trace (or the per-host files)")
		return 2
	}
	var events []obs.Event
	if fs.NArg() == 1 {
		evs, ok := loadTrace(fs.Arg(0), stderr)
		if !ok {
			return 1
		}
		events = evs
	} else {
		m, err := merge.MergeFiles(fs.Args())
		if err != nil {
			fmt.Fprintln(stderr, "bctrace:", err)
			return 1
		}
		events = m.Events
	}
	rounds, blame := merge.CriticalPath(events)
	if len(rounds) == 0 {
		fmt.Fprintln(stderr, "bctrace: trace carries no per-host phase slices")
		return 1
	}
	fmt.Fprintf(stdout, "rounds attributed: %d\n", len(rounds))
	fmt.Fprintln(stdout, "critical-path blame (rounds bounded):")
	for _, hb := range blame {
		fmt.Fprintf(stdout, "  host %-4d %4d rounds  %-13s  %5.1f%%\n",
			hb.Host, hb.Rounds, time.Duration(hb.BoundNs), 100*hb.Share)
	}
	if *top > 0 {
		ranked := append([]merge.RoundBlame(nil), rounds...)
		sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].HostNs > ranked[j].HostNs })
		if *top < len(ranked) {
			ranked = ranked[:*top]
		}
		fmt.Fprintln(stdout, "slowest rounds (epoch round host bound mean exchange):")
		for _, rb := range ranked {
			fmt.Fprintf(stdout, "  %-3d %-5d %-4d %-13s %-13s %s\n",
				rb.Epoch, rb.Round, rb.Host, time.Duration(rb.HostNs),
				time.Duration(rb.MeanNs), time.Duration(rb.ExchangeNs))
		}
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
