// Command bcctl coordinates a multi-process BC cluster: it spawns N
// bcd host daemons on localhost, distributes one job across them over
// the control protocol, and aggregates the per-host results into the
// final scores and cluster statistics.
//
// Usage:
//
//	bcctl -hosts 4 -graph web.gr -sources 32 -top 10
//	bcctl -hosts 4 -gen rmat -scale 10 -engine sbbc -verify
//	bcctl -hosts 2 -graph web.gr -trace /tmp/run -verify
//	bcctl -hosts 4 -spares 1 -gen rmat -scale 8 -kill-host 2 -kill-after 300ms -verify
//
// The last form is the elastic chaos smoke: daemons checkpoint at
// every source-batch boundary, host 2's daemon is SIGKILLed mid-run,
// and the coordinator promotes a spare into its slot, rolls the
// cluster back to the latest common boundary, and resumes — the
// verified scores must still match the oracle.
//
// Each daemon loads the same graph file and recomputes the same
// deterministic partition plan, so only the job spec travels over the
// control connections. -verify additionally runs the sequential
// Brandes oracle in this process and reports the maximum elementwise
// deviation. -bcd names the daemon binary (default: "bcd" found on
// PATH).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"mrbc"
	"mrbc/internal/brandes"
	"mrbc/internal/clusterrun"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
	"mrbc/internal/obs"
	"mrbc/internal/obs/merge"
	"mrbc/internal/obs/serve"
	"mrbc/internal/partition"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bcctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bcctl", flag.ExitOnError)
	var (
		bcdPath   = fs.String("bcd", "bcd", "bcd daemon binary")
		hosts     = fs.Int("hosts", 4, "number of host processes")
		graphPath = fs.String("graph", "", "graph file every host loads (text edge list, or .gr/.bin CSR)")
		genName   = fs.String("gen", "", "generate input instead: rmat | kron | road | webcrawl")
		scale     = fs.Int("scale", 10, "log2 vertex count for rmat/kron/webcrawl")
		edgeFac   = fs.Int("edgefactor", 8, "edges per vertex for generators")
		rows      = fs.Int("rows", 64, "grid rows for -gen road")
		cols      = fs.Int("cols", 64, "grid cols for -gen road")
		seed      = fs.Int64("seed", 1, "generator seed")
		engine    = fs.String("engine", "mrbcdist", "engine: mrbcdist | sbbc")
		partName  = fs.String("partition", "edge-cut", "partition policy: edge-cut | cartesian")
		batch     = fs.Int("batch", 0, "batch size k for mrbcdist (0: engine default)")
		srcStart  = fs.Int("source-start", 0, "first source vertex")
		srcCount  = fs.Int("sources", 32, "number of sources (0 = all vertices)")
		topK      = fs.Int("top", 10, "print the k most central vertices")
		verify    = fs.Bool("verify", false, "compare against the sequential Brandes oracle")
		tracePref = fs.String("trace", "", "per-host trace path prefix (writes <prefix>.hostN.jsonl)")
		timeout   = fs.Duration("timeout", 2*time.Minute, "whole-job timeout")
		verbose   = fs.Bool("v", false, "forward daemon stderr")
		spares    = fs.Int("spares", 0, "standby bcd daemons kept warm for elastic host replacement")
		elasticOn = fs.Bool("elastic", false, "checkpoint at batch boundaries and recover from host deaths")
		ckptDir   = fs.String("checkpoint", "", "shared checkpoint directory for -elastic (default: a temp dir)")
		killHost  = fs.Int("kill-host", -1, "chaos: SIGKILL this host's daemon mid-run (implies -elastic)")
		killAfter = fs.Duration("kill-after", 500*time.Millisecond, "chaos: delay before -kill-host fires")
		deadline  = fs.Int("deadline-steps", 0, "transport stall deadline in reliability steps (0: gluon default)")
		serveAddr = fs.String("serve", "", "serve live cluster progress (/clusterz) on this address while the job runs")
		ctrace    = fs.String("cluster-trace", "", "merge + check every host's trace file, and write the cluster trace here")
	)
	fs.Parse(args)
	// Every flag is checked before any bcd is spawned: a partition the
	// daemons would refuse, a host to kill that is not in the cluster,
	// and (once the graph is known) a source range bc would refuse.
	if err := partition.CheckName(*partName); err != nil {
		return fmt.Errorf("-partition: %w", err)
	}
	if *killHost >= *hosts {
		return fmt.Errorf("-kill-host %d out of range for %d hosts", *killHost, *hosts)
	}
	if *killHost >= 0 {
		*elasticOn = true
	}
	if *elasticOn && *engine != "mrbcdist" && *engine != "" {
		return fmt.Errorf("-elastic requires the mrbcdist engine (checkpointing), not %q", *engine)
	}

	path, g, cleanup, err := materializeGraph(*graphPath, *genName, gen.Params{Scale: *scale, EdgeFactor: *edgeFac,
		Rows: *rows, Cols: *cols, Tails: gen.DefaultTails, TailLen: gen.DefaultTailLen, Seed: *seed})
	if err != nil {
		return err
	}
	defer cleanup()
	fmt.Printf("graph: %d vertices, %d edges (%s)\n", g.NumVertices(), g.NumEdges(), path)

	sources, err := brandes.SourceRange(g.NumVertices(), *srcStart, *srcCount)
	if err != nil {
		return err
	}

	bcd, err := exec.LookPath(*bcdPath)
	if err != nil {
		return fmt.Errorf("bcd binary: %w (build it with: go build ./cmd/bcd)", err)
	}
	copts := clusterrun.ClusterOptions{BcdPath: bcd, Hosts: *hosts, Spares: *spares, Metrics: *serveAddr != ""}
	if *verbose {
		copts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	cluster, err := clusterrun.Launch(copts)
	if err != nil {
		return err
	}
	defer cluster.Close()
	fmt.Printf("cluster: %d bcd processes up (+%d spares)\n", *hosts, *spares)

	if *serveAddr != "" {
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			return fmt.Errorf("-serve: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/clusterz", serve.ClusterzHandler(cluster.MetricsAddrs, 2*time.Second))
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("serving cluster progress on http://%s/clusterz\n", ln.Addr())
	}

	spec := clusterrun.JobSpec{
		Engine:        *engine,
		GraphPath:     path,
		Partition:     *partName,
		Sources:       sources,
		BatchSize:     *batch,
		TracePath:     *tracePref,
		DeadlineSteps: *deadline,
	}
	if *ctrace != "" && spec.TracePath == "" {
		dir, err := os.MkdirTemp("", "bcctl-trace-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		spec.TracePath = filepath.Join(dir, "trace")
	}
	start := time.Now()
	var agg *clusterrun.Aggregate
	attempts := 1
	if *elasticOn {
		dir := *ckptDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "bcctl-ckpt-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
		}
		spec.CheckpointDir = dir
		if *killHost >= 0 {
			h := *killHost
			time.AfterFunc(*killAfter, func() {
				if err := cluster.KillHost(h); err != nil {
					fmt.Fprintln(os.Stderr, "bcctl:", err)
				} else {
					fmt.Printf("chaos: SIGKILLed host %d after %v\n", h, *killAfter)
				}
			})
		}
		var rep *clusterrun.ElasticReport
		agg, rep, err = cluster.RunElastic(spec, clusterrun.ElasticOptions{Timeout: *timeout})
		if rep != nil && rep.Attempts > 1 {
			attempts = rep.Attempts
			fmt.Printf("elastic: %d attempts, victims %v, resumed from batches %v, %d recovery bytes / %d recovery msgs discarded\n",
				rep.Attempts, rep.Victims, rep.ResumeBatches, rep.RecoveryBytes, rep.RecoveryMessages)
		}
	} else {
		agg, err = cluster.Run(spec, clusterrun.RunOptions{Timeout: *timeout})
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if *ctrace != "" {
		if err := writeClusterTrace(*ctrace, clusterrun.TraceFiles(spec.TracePath, attempts, *hosts)); err != nil {
			return err
		}
	}

	fmt.Printf("done: %d sources in %v, %d rounds, %d messages, %d bytes\n",
		len(sources), elapsed.Round(time.Millisecond), agg.Rounds, agg.Messages, agg.Bytes)
	for _, res := range agg.PerHost {
		fmt.Printf("  host %d: %d msgs, %d bytes", res.Host, res.Messages, res.Bytes)
		if res.Retries > 0 || res.Redials > 0 {
			fmt.Printf(", %d retries (%d bytes), %d redials", res.Retries, res.RetryBytes, res.Redials)
		}
		fmt.Println()
	}

	if *verify {
		oracle := brandes.Sequential(g, sources)
		diff := mrbc.MaxAbsDifference(agg.Scores, oracle)
		fmt.Printf("verify: max |score - brandes| = %.3g\n", diff)
		if diff > 1e-9 {
			return fmt.Errorf("verification failed: deviation %.3g exceeds 1e-9", diff)
		}
	}

	if top := mrbc.TopK(agg.Scores, *topK); len(top) > 0 {
		fmt.Printf("top %d vertices:\n", len(top))
		for _, r := range top {
			fmt.Printf("  %8d  %.6f\n", r.Vertex, r.Score)
		}
	}
	return nil
}

// writeClusterTrace merges the per-host trace files of every attempt
// into one cluster trace, proves its final epoch (conservation,
// send/recv pairing, the global Lemma 8 bound), writes it, and prints
// the conservation totals, the committed and discarded volume and the
// critical-path attribution.
func writeClusterTrace(path string, files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("-cluster-trace: no host opened a trace file")
	}
	m, err := merge.MergeFiles(files)
	if err != nil {
		return err
	}
	fin, cons, err := m.CheckFinalEpoch()
	if err != nil {
		return fmt.Errorf("cluster trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("cluster trace: %d events over %d hosts from %d files -> %s\n", len(m.Events), m.Hosts, len(files), path)
	fmt.Printf("conservation: %d links, %d bytes, %d messages conserved exactly (epoch %d)\n",
		cons.Links, cons.Bytes, cons.Messages, fin)
	if cons.RetryBytes > 0 || cons.Redials > 0 {
		fmt.Printf("  recovery (itemized separately): %d retry msgs, %d retry bytes, %d redials\n",
			cons.RetryMessages, cons.RetryBytes, cons.Redials)
	}
	m.Report.WriteSummary(os.Stdout)
	var rounds obs.RoundAccum
	for _, e := range m.Events {
		rounds.Observe(e)
	}
	blame := rounds.Report().Blame
	for _, hb := range blame[:min(3, len(blame))] {
		fmt.Printf("critical path: host %d bounded %d rounds (%.0f%% of bounded time)\n",
			hb.Host, hb.Rounds, 100*hb.Share)
	}
	return nil
}

// materializeGraph loads -graph, or generates the requested input and
// saves it to a temporary binary file every daemon can load.
func materializeGraph(path, genName string, p gen.Params) (string, *graph.Graph, func(), error) {
	nop := func() {}
	if path != "" {
		g, err := graph.Load(path)
		return path, g, nop, err
	}
	if genName == "" {
		return "", nil, nop, fmt.Errorf("need -graph or -gen")
	}
	g, err := gen.ByName(genName, p)
	if err != nil {
		return "", nil, nop, err
	}
	dir, err := os.MkdirTemp("", "bcctl-*")
	if err != nil {
		return "", nil, nop, err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-%d.gr", genName, p.Seed))
	if err := g.Save(file); err != nil {
		os.RemoveAll(dir)
		return "", nil, nop, err
	}
	return file, g, func() { os.RemoveAll(dir) }, nil
}
