package mrbcdist

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/elastic"
	"mrbc/internal/gen"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
)

// canonicalBytes renders a run's canonical trace to its serialized
// form, so trace comparisons in this file are byte-level, not
// struct-level.
func canonicalBytes(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteCanonical(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tailFrom filters the uninterrupted run's events to those a run
// resumed at boundary b would emit: engine events (KindSend/KindBatch,
// which carry Seq 0 and an explicit Batch) from batch b on, and
// cluster phase events (which carry a nonzero Seq and, on the
// serial path, Batch 0) past the snapshot's sequence cursor.
func tailFrom(events []obs.Event, b int, seq int64) []obs.Event {
	out := make([]obs.Event, 0, len(events))
	for _, e := range events {
		if e.Seq != 0 {
			if e.Seq > seq {
				out = append(out, e)
			}
		} else if int(e.Batch) >= b {
			out = append(out, e)
		}
	}
	return out
}

// TestResumeFromEveryBoundaryReplaysCanonicalTrace is the determinism
// pin of the elastic design: a depth-1 run resumed from ANY batch
// boundary must replay the uninterrupted run's canonical trace — same
// phase sequence numbers, same round numbers, same send events — byte
// for byte, and land on bitwise-identical scores. This is what makes
// checkpoint rollback invisible to the paper model.
func TestResumeFromEveryBoundaryReplaysCanonicalTrace(t *testing.T) {
	g := gen.RMAT(6, 8, 42)
	pt := partition.EdgeCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 16)
	const batchSize = 4 // 4 boundaries from 16 sources

	tr := obs.NewTrace(1<<18, obs.LevelDetail)
	sink := elastic.NewMemSink()
	full, fullStats, err := RunChecked(g, pt, sources, Options{
		BatchSize: batchSize, Trace: tr, Checkpoint: sink})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() > 0 {
		t.Fatalf("trace dropped %d events", tr.Dropped())
	}
	fullEvents := obs.Canonical(tr.Events())

	boundaries := sink.Boundaries()
	if len(boundaries) != (len(sources)+batchSize-1)/batchSize {
		t.Fatalf("got boundaries %v, want one per batch", boundaries)
	}
	for _, b := range boundaries {
		if b == len(boundaries) {
			continue // resuming after the last batch replays nothing
		}
		data, err := sink.Get(b)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := elastic.Decode(data)
		if err != nil {
			t.Fatalf("boundary %d: %v", b, err)
		}
		rtr := obs.NewTrace(1<<18, obs.LevelDetail)
		got, stats, err := RunChecked(g, pt, sources, Options{
			BatchSize: batchSize, Trace: rtr, Resume: snap})
		if err != nil {
			t.Fatalf("resume at boundary %d: %v", b, err)
		}
		for v := range got {
			if got[v] != full[v] {
				t.Fatalf("boundary %d: score of vertex %d not bitwise equal after resume", b, v)
			}
		}
		if stats.Bytes != fullStats.Bytes || stats.Messages != fullStats.Messages ||
			stats.Rounds != fullStats.Rounds || stats.Encoding != fullStats.Encoding {
			t.Fatalf("boundary %d: resumed stats diverged: %d B/%d msgs/%d rounds, want %d/%d/%d",
				b, stats.Bytes, stats.Messages, stats.Rounds,
				fullStats.Bytes, fullStats.Messages, fullStats.Rounds)
		}
		want := canonicalBytes(t, obs.Canonical(tailFrom(fullEvents, b, snap.Seq)))
		gotTrace := canonicalBytes(t, obs.Canonical(rtr.Events()))
		if !bytes.Equal(gotTrace, want) {
			t.Fatalf("boundary %d: resumed canonical trace is not byte-identical to the uninterrupted tail (%d vs %d bytes)",
				b, len(gotTrace), len(want))
		}
	}
}

// TestCheckpointSnapshotsAreDeterministic pins that the snapshot bytes
// a run persists are a pure function of the configuration: two
// identical runs fill their sinks with byte-identical files at every
// boundary (the property that lets any surviving host's checkpoint
// stand in for a dead host's in an in-process run).
func TestCheckpointSnapshotsAreDeterministic(t *testing.T) {
	g := gen.RoadGrid(6, 6, 7)
	pt := partition.CartesianCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 12)
	run := func() *elastic.MemSink {
		sink := elastic.NewMemSink()
		if _, _, err := RunChecked(g, pt, sources, Options{BatchSize: 4, Checkpoint: sink}); err != nil {
			t.Fatal(err)
		}
		return sink
	}
	a, b := run(), run()
	ab, bb := a.Boundaries(), b.Boundaries()
	if len(ab) == 0 || len(ab) != len(bb) {
		t.Fatalf("boundary sets diverged: %v vs %v", ab, bb)
	}
	for _, bd := range ab {
		da, err := a.Get(bd)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Get(bd)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("boundary %d: snapshots of identical runs differ", bd)
		}
	}
}

// TestResumeRefusesAnotherHostsSnapshot: a snapshot holds the scores and
// volume of the host that wrote it — a TCP host's own masters, or the
// whole cluster's in process (Host −1) — so an in-process run handed a
// host's snapshot refuses it, naming both hosts, instead of resuming
// with a partial score vector.
func TestResumeRefusesAnotherHostsSnapshot(t *testing.T) {
	g := gen.RoadGrid(6, 6, 7)
	pt := partition.CartesianCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 12)
	snap := &elastic.Snapshot{Host: 2, Hosts: pt.NumHosts, NextBatch: 1, Scores: make([]float64, g.NumVertices())}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "snapshot belongs to host 2") || !strings.Contains(msg, "this run is host -1") {
			t.Fatalf("resuming another host's snapshot panicked %q", msg)
		}
	}()
	RunChecked(g, pt, sources, Options{BatchSize: 4, Resume: snap})
	t.Fatal("an in-process run resumed host 2's snapshot")
}
