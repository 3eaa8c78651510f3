package clustertest

import (
	"fmt"
	"testing"
	"time"

	"mrbc"
	"mrbc/internal/clusterrun"
)

// TestClusterMatchesOracle runs the flagship engine across real
// 2-, 4-, and 8-process clusters and pins the full correctness
// contract: the elementwise-summed distributed scores match the
// sequential Brandes oracle to 1e-9, and the per-host results sum to
// exactly the in-process simulated run — same scores, same round
// count, same logical communication volume. The distributed transport
// may retry and re-dial all it wants; none of that is allowed to show
// up in the paper-model numbers.
func TestClusterMatchesOracle(t *testing.T) {
	for _, hosts := range []int{2, 4, 8} {
		hosts := hosts
		t.Run(fmt.Sprintf("hosts=%d", hosts), func(t *testing.T) {
			spec := baseSpec(t)
			spec.Engine = "mrbcdist"
			checkClusterAgainstReference(t, hosts, spec)
		})
	}
}

// TestClusterEngineAndPartitionVariants covers the second engine and
// the second partition policy on 4-process clusters.
func TestClusterEngineAndPartitionVariants(t *testing.T) {
	t.Run("sbbc", func(t *testing.T) {
		spec := baseSpec(t)
		spec.Engine = "sbbc"
		checkClusterAgainstReference(t, 4, spec)
	})
	t.Run("cartesian", func(t *testing.T) {
		spec := baseSpec(t)
		spec.Engine = "mrbcdist"
		spec.Partition = "cartesian"
		checkClusterAgainstReference(t, 4, spec)
	})
}

func checkClusterAgainstReference(t *testing.T, hosts int, spec clusterrun.JobSpec) {
	t.Helper()
	c := launch(t, hosts)
	agg, err := runWithTimeout(t, c, spec, clusterrun.RunOptions{}, 2*time.Minute)
	if err != nil {
		t.Fatalf("%d-host run: %v", hosts, err)
	}

	if diff := mrbc.MaxAbsDifference(agg.Scores, oracle()); diff > 1e-9 {
		t.Errorf("%d-host scores deviate from Brandes oracle by %g (budget 1e-9)", hosts, diff)
	}

	spec.Hosts = hosts
	ref := refRun(t, spec)
	if diff := mrbc.MaxAbsDifference(agg.Scores, ref.Scores); diff > 1e-12 {
		t.Errorf("summed distributed scores deviate from in-process run by %g", diff)
	}
	if agg.Rounds != ref.Rounds {
		t.Errorf("distributed run took %d rounds, in-process run %d", agg.Rounds, ref.Rounds)
	}
	if agg.Bytes != ref.Bytes || agg.Messages != ref.Messages {
		t.Errorf("per-host volume sums to %d msgs / %d bytes, in-process run counted %d / %d",
			agg.Messages, agg.Bytes, ref.Messages, ref.Bytes)
	}
	for _, res := range agg.PerHost {
		if res.Fault != nil {
			t.Errorf("host %d reported a fault on a clean network: %+v", res.Host, res.Fault)
		}
	}
}

// TestClusterReusesDaemons pins the persistent-daemon contract the
// chaos sweep depends on: one spawned cluster serves many jobs.
func TestClusterReusesDaemons(t *testing.T) {
	c := launch(t, 2)
	spec := baseSpec(t)
	spec.Engine = "mrbcdist"
	for i := 0; i < 3; i++ {
		agg, err := runWithTimeout(t, c, spec, clusterrun.RunOptions{}, time.Minute)
		if err != nil {
			t.Fatalf("job %d on reused cluster: %v", i, err)
		}
		if diff := mrbc.MaxAbsDifference(agg.Scores, oracle()); diff > 1e-9 {
			t.Fatalf("job %d: scores deviate by %g", i, diff)
		}
	}
}
