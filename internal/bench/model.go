package bench

import (
	"fmt"

	"mrbc/internal/brandes"
	"mrbc/internal/core"
	"mrbc/internal/graph"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/partition"
	"mrbc/internal/sbbc"
)

// ModelRow compares the analytical round model against measured BSP
// rounds for one input:
//
//   - MRBC: Lemma 8 bounds each phase of a batch by k+H rounds, and the
//     batch spends one more detecting that its forward phase is done, so
//     at most Σ_batches (2(k_b + H) + 1) (the bound mrbcdist's retire
//     states); H over all sources bounds each batch's own.
//   - SBBC: one round per BFS level each way per source, plus the one
//     that finds the last level empty: exactly Σ_s (2·ecc(s) + 1).
type ModelRow struct {
	Input         Input
	H             uint32 // largest finite distance from the sources
	MRBCPredicted int
	MRBCMeasured  int
	SBBCPredicted int
	SBBCMeasured  int
	MRBCTightness float64 // measured / predicted (≤ 1 when the bound holds)
	SBBCTightness float64 // measured / predicted (1 when the count is exact)
}

// ModelCheck measures both algorithms and reports the model fit.
func ModelCheck(inputs []Input, scale Scale) []ModelRow {
	rows := make([]ModelRow, 0, len(inputs))
	for _, in := range inputs {
		g := in.Build()
		sources := brandes.FirstKSources(g, 0, in.NumSources)
		hosts := HostsAtScale(in.Class, scale)
		pt := partition.CartesianCut(g, hosts)

		h := core.MaxFiniteDistance(g, sources)
		batches := (in.NumSources + in.Batch - 1) / in.Batch
		mrbcPred := 0
		for b := 0; b < batches; b++ {
			k := in.Batch
			if rem := in.NumSources - b*in.Batch; rem < k {
				k = rem
			}
			mrbcPred += 2*(k+int(h)) + 1
		}

		sbbcPred := 0
		for _, s := range sources {
			ecc := uint32(0)
			for _, d := range g.BFS(s) {
				if d != graph.InfDist && d > ecc {
					ecc = d
				}
			}
			sbbcPred += 2*int(ecc) + 1
		}

		_, mStats := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: in.Batch})
		_, sStats := sbbc.Run(g, pt, sources)

		row := ModelRow{
			Input:         in,
			H:             h,
			MRBCPredicted: mrbcPred,
			MRBCMeasured:  mStats.Rounds,
			SBBCPredicted: sbbcPred,
			SBBCMeasured:  sStats.Rounds,
		}
		if mrbcPred > 0 {
			row.MRBCTightness = float64(mStats.Rounds) / float64(mrbcPred)
		}
		if sbbcPred > 0 {
			row.SBBCTightness = float64(sStats.Rounds) / float64(sbbcPred)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatModel renders the model-vs-measured comparison.
func FormatModel(rows []ModelRow) string {
	header := []string{"input", "H", "MRBC pred", "MRBC meas", "fit",
		"SBBC pred", "SBBC meas", "fit"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Input.Name, fmt.Sprint(r.H),
			fmt.Sprint(r.MRBCPredicted), fmt.Sprint(r.MRBCMeasured),
			fmt.Sprintf("%.2f", r.MRBCTightness),
			fmt.Sprint(r.SBBCPredicted), fmt.Sprint(r.SBBCMeasured),
			fmt.Sprintf("%.2f", r.SBBCTightness),
		})
	}
	return "Round model check: Lemma 8 (MRBC, 2(k+H)+1 per batch) and level counting (SBBC, 2·ecc+1 per source)\n" +
		table(header, out)
}
