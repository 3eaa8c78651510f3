package clustertest

import (
	"testing"
	"time"

	"mrbc"
	"mrbc/internal/clusterrun"
)

// pipelineSpec is the software-pipelined job: batches small enough
// that the 16-source input keeps two in flight across the cluster.
func pipelineSpec(t *testing.T) clusterrun.JobSpec {
	spec := baseSpec(t)
	spec.Engine = "mrbcdist"
	spec.BatchSize = 4
	spec.PipelineDepth = 2
	return spec
}

// TestClusterPipelined runs the depth-2 job on a real 4-process
// cluster and pins the full correctness contract: oracle scores,
// and exact score/round/volume agreement with the in-process
// reference running the same pipelined spec.
func TestClusterPipelined(t *testing.T) {
	checkClusterAgainstReference(t, 4, pipelineSpec(t))
}

// TestPipelinedFaultSchedules reruns the seeded socket-level fault
// sweep with the depth-2 pipeline: retransmission and re-dial must
// interleave correctly with the concurrently-open per-batch exchange
// streams, and the scores must stay oracle-exact.
func TestPipelinedFaultSchedules(t *testing.T) {
	const hosts = 4
	seeds := 16
	if testing.Short() {
		seeds = 6
	}
	c := launch(t, hosts)
	for seed := 0; seed < seeds; seed++ {
		plans := faultPlans(uint64(seed)*0x51ed2701+3, hosts)
		hook, _ := clusterrun.InterposeProxies(plans)
		spec := pipelineSpec(t)
		spec.StepMillis = 2
		spec.DeadlineSteps = 1500 // 3 s stall budget
		agg, err := runWithTimeout(t, c, spec, clusterrun.RunOptions{MapAddrs: hook}, time.Minute)
		if err != nil {
			t.Fatalf("seed %d: recoverable schedule failed under pipelining: %v", seed, err)
		}
		if diff := mrbc.MaxAbsDifference(agg.Scores, oracle()); diff > 1e-9 {
			t.Fatalf("seed %d: pipelined scores deviate from oracle by %g under faults", seed, diff)
		}
	}
}
