package obs

import (
	"fmt"
	"sort"
)

// Totals aggregates a trace's volume and transport counters. Pack and
// unpack phase events account the same payloads from the sender and
// receiver sides, so PackBytes == UnpackBytes on any complete trace —
// and both equal the cluster's paper-model Stats.Bytes.
type Totals struct {
	PackBytes      int64
	PackMessages   int64
	UnpackBytes    int64
	UnpackMessages int64
	Dense          int64
	Sparse         int64
	All            int64

	Retries    int64
	RetryBytes int64
}

// Observe folds one event's counters into the totals. It is the
// streaming form of Sum: trace consumers that cannot hold a multi-GB
// detail trace in memory feed events from an EventReader one at a
// time.
func (t *Totals) Observe(e Event) {
	switch e.Kind {
	case KindPhase:
		switch e.Phase {
		case PhasePack:
			t.PackBytes += e.Bytes
			t.PackMessages += e.Messages
			t.Dense += e.Dense
			t.Sparse += e.Sparse
			t.All += e.All
		case PhaseUnpack:
			t.UnpackBytes += e.Bytes
			t.UnpackMessages += e.Messages
		}
	case KindTransport:
		t.Retries += e.Retries
		t.RetryBytes += e.RetryBytes
	}
}

// Sum folds a trace's counters into Totals (the trace-accounting
// oracle the chaostest sweep checks against dgalois.Stats).
func Sum(events []Event) Totals {
	var t Totals
	for _, e := range events {
		t.Observe(e)
	}
	return t
}

// batchSummaries indexes the KindBatch events of a trace.
func batchSummaries(events []Event) (map[int32]Event, error) {
	batches := make(map[int32]Event)
	for _, e := range events {
		if e.Kind != KindBatch {
			continue
		}
		if _, dup := batches[e.Batch]; dup {
			return nil, fmt.Errorf("obs: duplicate batch event for batch %d", e.Batch)
		}
		batches[e.Batch] = e
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("obs: trace carries no batch events")
	}
	return batches, nil
}

// CheckRoundBounds verifies Lemma 8 against a recorded trace, given H
// (the maximum finite distance from any batched source):
//
//   - per batch, forward activity rounds + backward rounds + the one
//     empty termination-detection round stay within 2(k+H)+1;
//   - at send granularity (LevelDetail traces), every forward
//     synchronization lands in a round ≤ k+H of its batch and within
//     the batch's recorded forward span, and every backward
//     synchronization within the batch's backward span.
//
// Phase-level traces check only the per-batch bound.
func CheckRoundBounds(events []Event, h int) error {
	batches, err := batchSummaries(events)
	if err != nil {
		return err
	}
	for bi, b := range batches {
		bound := 2*(int(b.K)+h) + 1
		total := int(b.FwdRounds) + int(b.BackRounds) + 1
		if total > bound {
			return fmt.Errorf("obs: batch %d (k=%d) ran %d+%d+1 = %d rounds, exceeding the Lemma 8 bound 2(k+H)+1 = %d (H=%d)",
				bi, b.K, b.FwdRounds, b.BackRounds, total, bound, h)
		}
	}
	for _, e := range events {
		if e.Kind != KindSend {
			continue
		}
		b, ok := batches[e.Batch]
		if !ok {
			return fmt.Errorf("obs: send event for batch %d has no batch summary", e.Batch)
		}
		if e.Round < 1 {
			return fmt.Errorf("obs: %s send of (v=%d, src=%d) in batch %d has round %d < 1",
				e.Dir, e.V, e.Src, e.Batch, e.Round)
		}
		switch e.Dir {
		case DirForward:
			if limit := int32(int(b.K) + h); e.Round > limit {
				return fmt.Errorf("obs: forward send of (v=%d, src=%d) in batch %d at round %d exceeds the k+H = %d bound",
					e.V, e.Src, e.Batch, e.Round, limit)
			}
			if e.Round > b.FwdRounds {
				return fmt.Errorf("obs: forward send of (v=%d, src=%d) in batch %d at round %d exceeds the batch's forward span R = %d",
					e.V, e.Src, e.Batch, e.Round, b.FwdRounds)
			}
		case DirBackward:
			if e.Round > b.BackRounds {
				return fmt.Errorf("obs: backward send of (v=%d, src=%d) in batch %d at round %d exceeds the batch's backward span %d",
					e.V, e.Src, e.Batch, e.Round, b.BackRounds)
			}
		default:
			return fmt.Errorf("obs: send event of (v=%d, src=%d) in batch %d has no direction", e.V, e.Src, e.Batch)
		}
	}
	return nil
}

// pairKey identifies one (batch, vertex, source) synchronization.
type pairKey struct {
	batch int32
	v     int32
	src   int32
}

// CheckReversal verifies the backward-reversal symmetry of Algorithm 5
// against a LevelDetail trace: every (vertex, source) pair synchronized
// forward in round τ of a batch with forward span R synchronizes
// backward in round R − τ + 1, exactly once in each direction.
func CheckReversal(events []Event) error {
	batches, err := batchSummaries(events)
	if err != nil {
		return err
	}
	fwd := make(map[pairKey]int32)
	back := make(map[pairKey]int32)
	sends := 0
	for _, e := range events {
		if e.Kind != KindSend {
			continue
		}
		sends++
		k := pairKey{e.Batch, e.V, e.Src}
		switch e.Dir {
		case DirForward:
			if prev, dup := fwd[k]; dup {
				return fmt.Errorf("obs: (v=%d, src=%d) in batch %d synchronized forward twice (rounds %d and %d)",
					k.v, k.src, k.batch, prev, e.Round)
			}
			fwd[k] = e.Round
		case DirBackward:
			if prev, dup := back[k]; dup {
				return fmt.Errorf("obs: (v=%d, src=%d) in batch %d synchronized backward twice (rounds %d and %d)",
					k.v, k.src, k.batch, prev, e.Round)
			}
			back[k] = e.Round
		}
	}
	if sends == 0 {
		return fmt.Errorf("obs: trace carries no send events (record at LevelDetail)")
	}
	// Deterministic error selection: report the smallest offending key.
	keys := make([]pairKey, 0, len(fwd))
	for k := range fwd {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.batch != b.batch {
			return a.batch < b.batch
		}
		if a.v != b.v {
			return a.v < b.v
		}
		return a.src < b.src
	})
	for _, k := range keys {
		tau := fwd[k]
		br, ok := back[k]
		if !ok {
			return fmt.Errorf("obs: (v=%d, src=%d) in batch %d synchronized forward (round %d) but never backward",
				k.v, k.src, k.batch, tau)
		}
		r := batches[k.batch].FwdRounds
		if want := r - tau + 1; br != want {
			return fmt.Errorf("obs: (v=%d, src=%d) in batch %d broke reversal symmetry: forward round τ=%d, R=%d, backward round %d, want R−τ+1 = %d",
				k.v, k.src, k.batch, tau, r, br, want)
		}
		delete(back, k)
	}
	if len(back) > 0 {
		for k, br := range back {
			return fmt.Errorf("obs: (v=%d, src=%d) in batch %d synchronized backward (round %d) but never forward",
				k.v, k.src, k.batch, br)
		}
	}
	return nil
}
