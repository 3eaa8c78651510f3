// Command bc computes betweenness centrality on a graph file or a
// generated graph using any of the library's engines.
//
// Usage:
//
//	bc -graph web.txt -alg mrbc -hosts 8 -sources 64 -top 10
//	bc -gen rmat -scale 12 -alg sbbc -hosts 4
//	bc -gen road -rows 64 -cols 64 -alg abbc
package main

import (
	"flag"
	"fmt"
	"os"

	"mrbc"
	"mrbc/internal/brandes"
	"mrbc/internal/gen"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file (text edge list, or .gr/.bin CSR)")
		genName   = flag.String("gen", "", "generate input instead: rmat | kron | road | webcrawl")
		scale     = flag.Int("scale", 12, "log2 vertex count for rmat/kron/webcrawl")
		edgeFac   = flag.Int("edgefactor", 8, "edges per vertex for generators")
		rows      = flag.Int("rows", 64, "grid rows for -gen road")
		cols      = flag.Int("cols", 64, "grid cols for -gen road")
		seed      = flag.Int64("seed", 1, "generator seed")
		alg       = flag.String("alg", "mrbc", "algorithm: mrbc | sbbc | abbc | mfbc | brandes | congest")
		hosts     = flag.Int("hosts", 1, "simulated hosts for mrbc/sbbc")
		policy    = flag.String("partition", "cartesian", "partition policy: cartesian | edge-cut")
		batch     = flag.Int("batch", 32, "batch size k for mrbc/mfbc")
		workers   = flag.Int("workers", 0, "shared-memory workers (0 = GOMAXPROCS)")
		srcStart  = flag.Int("source-start", 0, "first source vertex")
		srcCount  = flag.Int("sources", 32, "number of sources (0 = all from -source-start, exact BC at the default start)")
		topK      = flag.Int("top", 10, "print the k most central vertices")
		dimacs    = flag.String("dimacs", "", "weighted DIMACS .gr file (uses the weighted engines)")
		approxN   = flag.Int("approx", 0, "approximate exact BC from this many sampled sources instead")
	)
	flag.Parse()

	if *dimacs != "" {
		if err := runWeighted(*dimacs, *alg, *workers, *srcStart, *srcCount, *topK); err != nil {
			fmt.Fprintln(os.Stderr, "bc:", err)
			os.Exit(1)
		}
		return
	}

	g, err := loadOrGenerate(*graphPath, *genName, gen.Params{Scale: *scale, EdgeFactor: *edgeFac,
		Rows: *rows, Cols: *cols, Tails: gen.DefaultTails, TailLen: gen.DefaultTailLen, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bc:", err)
		os.Exit(1)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	if *approxN > 0 {
		scores, used := mrbc.ApproximateBetweenness(g, mrbc.ApproxOptions{
			Samples: *approxN, Seed: *seed, Workers: *workers, Adaptive: true,
		})
		fmt.Printf("approximate BC from %d sampled sources (n/k-scaled)\n", used)
		for _, r := range mrbc.TopK(scores, *topK) {
			fmt.Printf("vertex %8d  bc %.4f\n", r.Vertex, r.Score)
		}
		return
	}

	sources, err := brandes.SourceRange(g.NumVertices(), *srcStart, *srcCount)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bc:", err)
		os.Exit(1)
	}

	res, err := mrbc.Betweenness(g, sources, mrbc.Options{
		Algorithm: mrbc.Algorithm(*alg),
		Hosts:     *hosts,
		Partition: mrbc.PartitionPolicy(*policy),
		BatchSize: *batch,
		Workers:   *workers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bc:", err)
		os.Exit(1)
	}

	fmt.Printf("algorithm=%s hosts=%d sources=%d time=%v", *alg, *hosts, len(sources), res.Duration)
	if res.Rounds > 0 {
		fmt.Printf(" rounds=%d", res.Rounds)
	}
	if res.Bytes > 0 {
		fmt.Printf(" commBytes=%d commMessages=%d", res.Bytes, res.Messages)
	}
	fmt.Println()

	for _, r := range mrbc.TopK(res.Scores, *topK) {
		fmt.Printf("vertex %8d  bc %.4f\n", r.Vertex, r.Score)
	}
}

func runWeighted(path, alg string, workers, srcStart, srcCount, topK int) error {
	g, err := mrbc.LoadDIMACS(path)
	if err != nil {
		return err
	}
	fmt.Printf("weighted graph: %d vertices, %d arcs\n", g.NumVertices(), g.NumEdges())
	switch alg {
	case "brandes", "abbc", "mfbc":
	default:
		// The hop-count engines don't apply to weighted inputs; fall
		// back to the Dijkstra-based reference.
		alg = "brandes"
	}
	sources, err := brandes.SourceRange(g.NumVertices(), srcStart, srcCount)
	if err != nil {
		return err
	}
	res, err := mrbc.BetweennessWeighted(g, sources, mrbc.Options{
		Algorithm: mrbc.Algorithm(alg),
		Workers:   workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("algorithm=%s sources=%d time=%v\n", alg, len(sources), res.Duration)
	for _, r := range mrbc.TopK(res.Scores, topK) {
		fmt.Printf("vertex %8d  bc %.4f\n", r.Vertex, r.Score)
	}
	return nil
}

func loadOrGenerate(path, genName string, p gen.Params) (*mrbc.Graph, error) {
	switch {
	case path != "":
		return mrbc.Load(path)
	case genName == "":
		return nil, fmt.Errorf("provide -graph FILE or -gen NAME")
	}
	return gen.ByName(genName, p)
}
