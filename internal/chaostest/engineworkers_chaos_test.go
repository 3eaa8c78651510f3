package chaostest

import (
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/dgalois"
	"mrbc/internal/gen"
	"mrbc/internal/mrbcdist"
)

// TestFaultScheduleEngineWorkers crosses the two schedulers the stack
// now runs: random recoverable fault plans on the inter-host transport
// while each host's compute phases fan out over the intra-host
// work-stealing runner (EngineWorkers=4). The graph is sized so
// per-round frontiers exceed the inline gate — the pool genuinely
// engages — and every schedule must still converge to the Brandes
// oracle exactly.
func TestFaultScheduleEngineWorkers(t *testing.T) {
	g := gen.RMAT(9, 8, 5)
	sources := brandes.FirstKSources(g, 0, 24)
	oracle := brandes.Sequential(g, sources)

	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		hosts := []int{2, 4}[(seed/2)%2]
		pc := cuts[(seed/4)%len(cuts)]
		plan := dgalois.RandomPlan(uint64(1000+seed), maxRate, hosts)
		pt := pc.make(g, hosts)
		got, stats, err := mrbcdist.RunChecked(g, pt, sources, mrbcdist.Options{
			BatchSize: 16, Fault: plan, EngineWorkers: 4,
		})
		if err != nil {
			t.Fatalf("seed=%d %s hosts=%d: recoverable plan errored: %v",
				seed, pc.name, hosts, err)
		}
		if !approxEqual(got, oracle, 1e-9) {
			t.Fatalf("seed=%d %s hosts=%d: BC diverged from Brandes oracle under EngineWorkers=4",
				seed, pc.name, hosts)
		}
		if stats.Faults == nil {
			t.Fatalf("seed=%d: stats carry no fault accounting", seed)
		}
	}
}
