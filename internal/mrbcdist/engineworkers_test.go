package mrbcdist

import (
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/gen"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
)

// TestEngineWorkersMatchSerial pins the intra-host work-stealing runner
// end to end: EngineWorkers=4 must reproduce the serial per-host
// engines' scores and canonical trace, while actually engaging the pool
// (nonzero shard-tasks) and emitting one worker event per
// (batch, host, worker).
func TestEngineWorkersMatchSerial(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	pt := partition.CartesianCut(g, 2)
	sources := brandes.FirstKSources(g, 0, 32)
	want := brandes.Sequential(g, sources)

	serialTr := obs.NewTrace(1<<18, obs.LevelDetail)
	serial, _ := Run(g, pt, sources, Options{BatchSize: 32, Trace: serialTr})
	parTr := obs.NewTrace(1<<18, obs.LevelDetail)
	reg := obs.NewRegistry()
	par, _ := Run(g, pt, sources, Options{
		BatchSize: 32, EngineWorkers: 4, Trace: parTr, Metrics: reg,
	})
	if serialTr.Dropped() != 0 || parTr.Dropped() != 0 {
		t.Fatalf("trace ring too small (dropped %d/%d events)",
			serialTr.Dropped(), parTr.Dropped())
	}
	if !approxEqual(par, want, 1e-9) {
		t.Fatal("EngineWorkers=4 diverges from Brandes")
	}
	if !approxEqual(par, serial, 1e-9) {
		t.Fatal("EngineWorkers=4 diverges from serial engines")
	}
	// The model stream is independent of the intra-host scheduler:
	// canonicalization drops worker events, and everything left must
	// match the serial run byte for byte.
	if d := obs.Diff(serialTr.Events(), parTr.Events()); d.Index != -1 {
		t.Fatalf("canonical trace diverges at %d: %+v vs %+v",
			d.Index, d.A, d.B)
	}
	var workerEvents int
	var tasks int64
	for _, e := range parTr.Events() {
		if e.Kind == obs.KindWorker {
			workerEvents++
			tasks += e.Tasks
		}
	}
	if workerEvents == 0 {
		t.Fatal("no worker events emitted")
	}
	if tasks == 0 {
		t.Fatal("pool never engaged (zero shard-tasks)")
	}
	// Registry counters mirror the trace totals.
	snap := reg.Snapshot()
	var regTasks int64
	for _, v := range snap.CounterVecs["mrbc_worker_tasks_total"].Values {
		regTasks += v
	}
	if regTasks != tasks {
		t.Fatalf("registry tasks %d != trace tasks %d", regTasks, tasks)
	}
}
