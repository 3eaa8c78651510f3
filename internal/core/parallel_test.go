package core

import (
	"testing"

	"mrbc/internal/gen"
)

// forceParallel lowers the inline gate to zero so every round fans out
// to the pool, returning a restore function. The gate is a pure
// inline-vs-pool dispatch — results are identical either way — but
// tests of the stealing path need the pool actually exercised on
// test-sized graphs.
func forceParallel() func() {
	old := inlineFrontierLimit
	inlineFrontierLimit = 0
	return func() { inlineFrontierLimit = old }
}

// TestPoolRunsEveryTaskOnce drives the work-stealing pool directly
// through many phases and checks each task of each phase runs exactly
// once, whichever worker claims it, and that the per-worker counters
// account for every execution.
func TestPoolRunsEveryTaskOnce(t *testing.T) {
	const workers, tasks, phases = 4, 64, 200
	p := newWSPool(workers)
	defer p.close()
	counts := make([]int32, tasks)
	for ph := 0; ph < phases; ph++ {
		for i := range counts {
			counts[i] = 0
		}
		p.runPhase(tasks, func(task, worker int) {
			counts[task]++ // tasks are distinct; claims are exclusive
			p.cells[worker].staged++
		})
		for task, c := range counts {
			if c != 1 {
				t.Fatalf("phase %d: task %d ran %d times", ph, task, c)
			}
		}
		if got := p.flushStaged(); got != tasks {
			t.Fatalf("phase %d: flushed %d staged, want %d", ph, got, tasks)
		}
	}
	var executed, flushes int64
	for i := range p.cells {
		executed += p.cells[i].tasks
		flushes += p.cells[i].flushes
	}
	if executed != int64(tasks*phases) {
		t.Fatalf("worker cells account for %d tasks, want %d", executed, tasks*phases)
	}
	if flushes == 0 {
		t.Fatal("no phase-boundary counter flushes recorded")
	}
}

// TestRunToRunDeterminismUnderStealing runs the same configuration
// repeatedly with the pool forced on: stealing reshuffles which worker
// executes which shard-task, but scores must stay bitwise identical
// run to run and equal to the serial path.
func TestRunToRunDeterminismUnderStealing(t *testing.T) {
	defer forceParallel()()
	g := gen.RMAT(9, 8, 41)
	sources := make([]uint32, 16)
	for i := range sources {
		sources[i] = uint32(i * 3)
	}
	opts := Options{BatchSize: 8, Parallelism: 1, Workers: 4}
	ref, refStats := BC(g, sources, Options{BatchSize: 8, Parallelism: 1, Workers: 1})
	for run := 0; run < 5; run++ {
		got, stats := BC(g, sources, opts)
		if stats.ParallelRounds == 0 {
			t.Fatal("forced-parallel run executed no pool rounds")
		}
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("run %d: BC(%d) = %v, serial %v (not bitwise equal)", run, v, got[v], ref[v])
			}
		}
		if stats.LabelsSynced != refStats.LabelsSynced || stats.Rounds() != refStats.Rounds() {
			t.Fatalf("run %d: stats diverged: %+v vs %+v", run, stats, refStats)
		}
	}
}

// TestTinyFrontiersStayInline pins the inline gate: even with an
// explicit 8-worker request, a graph whose total label mass fits under
// the gate never fans a round out to the pool, so the run costs serial
// bucket time (no barriers, no steals).
func TestTinyFrontiersStayInline(t *testing.T) {
	g := gen.RoadGrid(4, 4, 7) // 16 vertices × batch 8 = 128 ≤ gate
	sources := []uint32{0, 3, 5, 7, 9, 11, 13, 15}
	_, stats := BC(g, sources, Options{BatchSize: 8, Parallelism: 1, Workers: 8})
	if stats.ParallelRounds != 0 {
		t.Fatalf("tiny frontier fanned out: %d parallel rounds", stats.ParallelRounds)
	}
	if stats.InlineRounds == 0 {
		t.Fatal("no inline rounds recorded")
	}
	if stats.Steals != 0 || stats.FailedSteals != 0 {
		t.Fatalf("tiny frontier touched the pool: %d steals, %d failed", stats.Steals, stats.FailedSteals)
	}
}

// TestRunnerWorkerStats checks the per-worker counters a forced
// parallel run reports: every parallel phase's tasks are accounted to
// some worker, and phase-boundary flushes happened.
func TestRunnerWorkerStats(t *testing.T) {
	defer forceParallel()()
	g := gen.RMAT(8, 8, 17)
	e := NewEngineOpts(g, 4, EngineOpts{Shards: ParallelShards(g.NumVertices())})
	for i, s := range []uint32{0, 7, 19, 31} {
		e.InitSource(s, i, true)
	}
	run := NewRunner(e, 4)
	defer run.Close()
	var stats RunStats
	R := run.forward(&stats)
	run.backward(R, &stats)
	ws := run.WorkerStats()
	if len(ws) != 4 {
		t.Fatalf("WorkerStats returned %d workers, want 4", len(ws))
	}
	var tasks, flushes int64
	for _, w := range ws {
		tasks += w.Tasks
		flushes += w.Flushes
	}
	if run.parallelRounds == 0 {
		t.Fatal("no parallel rounds executed")
	}
	// Each parallel forward round is 2 phases of NumShards tasks; the
	// backward StartBackward phase adds one more. Totals must match.
	if tasks == 0 || tasks%int64(e.NumShards()) != 0 {
		t.Fatalf("task total %d not a multiple of shard count %d", tasks, e.NumShards())
	}
	if flushes == 0 {
		t.Fatal("no counter flushes recorded")
	}
}
