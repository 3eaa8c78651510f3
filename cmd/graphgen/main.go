// Command graphgen generates synthetic input graphs and writes them to
// disk, or inspects an existing graph file's properties.
//
// Usage:
//
//	graphgen -gen rmat -scale 14 -edgefactor 16 -out rmat14.gr
//	graphgen -gen webcrawl -scale 13 -tails 10 -taillen 120 -out clue.gr
//	graphgen -inspect rmat14.gr
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"mrbc"
	"mrbc/internal/gen"
)

func main() {
	var (
		genName = flag.String("gen", "", "generator: rmat | kron | road | webcrawl")
		scale   = flag.Int("scale", 12, "log2 vertex count")
		edgeFac = flag.Int("edgefactor", 8, "edges per vertex")
		rows    = flag.Int("rows", 64, "grid rows (road)")
		cols    = flag.Int("cols", 64, "grid cols (road)")
		tails   = flag.Int("tails", gen.DefaultTails, "pendant chains (webcrawl)")
		tailLen = flag.Int("taillen", gen.DefaultTailLen, "chain length (webcrawl)")
		seed    = flag.Int64("seed", 1, "seed")
		out     = flag.String("out", "", "output path (.gr/.bin binary, else text)")
		dimacs  = flag.String("dimacs", "", "also write a weighted DIMACS .gr copy (random weights 1..maxweight)")
		maxW    = flag.Int("maxweight", 10, "maximum random edge weight for -dimacs")
		inspect = flag.String("inspect", "", "print properties of an existing graph file")
	)
	flag.Parse()

	if *inspect != "" {
		g, err := mrbc.Load(*inspect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		describe(g)
		return
	}

	g, err := gen.ByName(*genName, gen.Params{Scale: *scale, EdgeFactor: *edgeFac,
		Rows: *rows, Cols: *cols, Tails: *tails, TailLen: *tailLen, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
	describe(g)
	if *dimacs != "" {
		if err := writeDIMACS(g, *dimacs, *maxW, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "graphgen:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (weighted DIMACS)\n", *dimacs)
	}
	if *out == "" {
		if *dimacs == "" {
			fmt.Fprintln(os.Stderr, "graphgen: no -out given, graph discarded")
		}
		return
	}
	if err := g.Save(*out); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

func writeDIMACS(g *mrbc.Graph, path string, maxW int, seed int64) error {
	if maxW < 1 {
		maxW = 1
	}
	rng := rand.New(rand.NewSource(seed + 99))
	var edges []mrbc.WeightedEdge
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(uint32(u)) {
			edges = append(edges, mrbc.WeightedEdge{
				U: uint32(u), V: v, Weight: uint32(1 + rng.Intn(maxW)),
			})
		}
	}
	wg := mrbc.FromWeightedEdges(g.NumVertices(), edges)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return wg.WriteDIMACS(f)
}

func describe(g *mrbc.Graph) {
	maxOut, outV := g.MaxOutDegree()
	maxIn, inV := g.MaxInDegree()
	samples := []uint32{0}
	if n := g.NumVertices(); n > 1 {
		samples = append(samples, uint32(n/2), uint32(n-1))
	}
	fmt.Printf("vertices:      %d\n", g.NumVertices())
	fmt.Printf("edges:         %d\n", g.NumEdges())
	fmt.Printf("max out-deg:   %d (vertex %d)\n", maxOut, outV)
	fmt.Printf("max in-deg:    %d (vertex %d)\n", maxIn, inV)
	fmt.Printf("est. diameter: %d (from %d samples)\n", g.EstimateDiameter(samples), len(samples))
	fmt.Printf("weakly conn.:  %v\n", g.IsWeaklyConnected())
}
