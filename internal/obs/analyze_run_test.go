// External test package: this test drives a real mrbcdist run into
// the trace layer, which internal/obs cannot import without a cycle.
package obs_test

import (
	"testing"

	"mrbc/internal/gen"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
)

// record2HostTrace runs a small 2-host mrbcdist configuration with
// phase tracing and returns the retained events plus the run's stats.
func record2HostTrace(t *testing.T) ([]obs.Event, float64) {
	t.Helper()
	g := gen.RMAT(7, 8, 3)
	pt := partition.EdgeCut(g, 2)
	tr := obs.NewTrace(1<<16, obs.LevelPhase)
	sources := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	_, stats := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: 4, Trace: tr})
	if tr.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events; grow the capacity", tr.Dropped())
	}
	return tr.Events(), stats.LoadImbalance
}

// TestImbalanceAccumMatchesStats pins the bctrace imbalance pipeline to
// the cluster's own accounting: folding the recorded compute phases
// reproduces Stats.LoadImbalance exactly (same groups, same fold
// order, same arithmetic).
func TestImbalanceAccumMatchesStats(t *testing.T) {
	events, wantImbalance := record2HostTrace(t)
	var a obs.ImbalanceAccum
	for _, e := range events {
		a.Observe(e)
	}
	r := a.Report()
	if r.Mean != wantImbalance {
		t.Fatalf("trace-side imbalance %v != Stats.LoadImbalance %v", r.Mean, wantImbalance)
	}
	if r.Phases == 0 || len(r.PerHost) != 2 {
		t.Fatalf("degenerate report: %+v", r)
	}
}
