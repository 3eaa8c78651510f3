package merge

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrbc/internal/obs"
)

// synthRun builds per-host traces of a hosts-process SPMD run with E
// all-to-all exchanges: per-host phase slices, per-pair links,
// duplicated cluster-wide exchange and batch events — the shape bcd
// emits — with host h's clock distorted so that trueT = off[h] +
// skew[h]·ownT (host 0 is the reference: off 0, skew 1).
func synthRun(t *testing.T, hosts, exchanges int, off, skew []float64) []HostTrace {
	t.Helper()
	sent := func(from, to, i int) int64 { return int64(100 + 10*from + to + i) }
	own := func(h int, trueNs int64) int64 {
		return int64((float64(trueNs) - off[h]) / skew[h])
	}
	traces := make([]HostTrace, hosts)
	for h := 0; h < hosts; h++ {
		var evs []obs.Event
		for i := 0; i < exchanges; i++ {
			seq := int64(3*i + 1)
			round := int32(i + 1)
			start := int64(1_000_000*i + 500)
			computeDur := int64(10_000 * (h + 1) * (i%2 + 1))
			evs = append(evs, obs.Event{Kind: obs.KindPhase, Seq: seq, Round: round,
				Host: int32(h), Phase: obs.PhaseCompute,
				StartNs: own(h, start), DurNs: int64(skew[h] * float64(computeDur))})
			var packed, recvd int64
			for p := 0; p < hosts; p++ {
				if p == h {
					continue
				}
				packed += sent(h, p, i)
				recvd += sent(p, h, i)
				evs = append(evs,
					obs.Event{Kind: obs.KindLink, Seq: seq + 1, Round: round,
						Host: int32(h), Peer: int32(p), Phase: obs.PhasePack,
						Bytes: sent(h, p, i), Messages: 1, Dense: 1},
					obs.Event{Kind: obs.KindLink, Seq: seq + 1, Round: round,
						Host: int32(h), Peer: int32(p), Phase: obs.PhaseUnpack,
						Bytes: sent(p, h, i), Messages: 1, Dense: 1})
			}
			packStart := start + 50_000
			evs = append(evs,
				obs.Event{Kind: obs.KindPhase, Seq: seq + 1, Round: round,
					Host: int32(h), Phase: obs.PhasePack, Bytes: packed,
					Messages: int64(hosts - 1), Dense: int64(hosts - 1),
					StartNs: own(h, packStart), DurNs: int64(skew[h] * 5_000)},
				obs.Event{Kind: obs.KindPhase, Seq: seq + 2, Round: round,
					Host: int32(h), Phase: obs.PhaseUnpack, Bytes: recvd,
					Messages: int64(hosts - 1),
					StartNs:  own(h, packStart+20_000), DurNs: int64(skew[h] * 5_000)},
				obs.Event{Kind: obs.KindPhase, Seq: seq + 1, Round: round,
					Host: -1, Phase: obs.PhaseExchange,
					StartNs: own(h, packStart), DurNs: int64(skew[h] * 30_000)})
		}
		evs = append(evs, obs.Event{Kind: obs.KindBatch, Host: -1, Batch: 0,
			K: 4, FwdRounds: int32(exchanges), BackRounds: int32(exchanges)})
		traces[h] = HostTrace{Host: h, Hosts: hosts, Events: evs}
	}
	return traces
}

func synthIdentRun(t *testing.T, hosts, exchanges int) []HostTrace {
	off, skew := ident(hosts)
	return synthRun(t, hosts, exchanges, off, skew)
}

func ident(hosts int) ([]float64, []float64) {
	off := make([]float64, hosts)
	skew := make([]float64, hosts)
	for i := range skew {
		skew[i] = 1
	}
	return off, skew
}

func TestMergeDeterministic(t *testing.T) {
	off := []float64{0, 3.7e6, -1.2e6}
	skew := []float64{1, 1.0002, 0.9997}
	run := func(order []int) []byte {
		traces := synthRun(t, 3, 5, off, skew)
		perm := make([]HostTrace, len(order))
		for i, o := range order {
			perm[i] = traces[o]
		}
		m, err := Merge(perm)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := run([]int{0, 1, 2})
	b := run([]int{2, 0, 1})
	if !bytes.Equal(a, b) {
		t.Fatal("merged trace depends on input order")
	}
	if !bytes.Equal(a, run([]int{0, 1, 2})) {
		t.Fatal("merging the same traces twice is not byte-identical")
	}
}

func TestMergeAlignsClocks(t *testing.T) {
	off := []float64{0, 5e6}
	skew := []float64{1, 1.0005}
	m, err := Merge(synthRun(t, 2, 6, off, skew))
	if err != nil {
		t.Fatal(err)
	}
	var al *Alignment
	for i := range m.Report.Alignments {
		if m.Report.Alignments[i].Host == 1 {
			al = &m.Report.Alignments[i]
		}
	}
	if al == nil || al.SyncPoints != 6 {
		t.Fatalf("host 1 alignment = %+v, want 6 sync points", al)
	}
	if math.Abs(al.Skew-1.0005) > 1e-3 || math.Abs(al.OffsetNs-5e6) > 1e4 {
		t.Fatalf("fit offset=%.0f skew=%.6f, want 5e6 / 1.0005", al.OffsetNs, al.Skew)
	}
	// After alignment both hosts' copies of each exchange must end at
	// (nearly) the same instant.
	ends := make(map[int64][]int64)
	for _, e := range m.Events {
		if e.Kind == obs.KindPhase && e.Phase == obs.PhaseExchange && e.Host == -1 {
			ends[e.Seq] = append(ends[e.Seq], e.StartNs+e.DurNs)
		}
	}
	for seq, ts := range ends {
		if len(ts) != 2 {
			t.Fatalf("exchange seq %d recorded by %d hosts", seq, len(ts))
		}
		if d := ts[0] - ts[1]; d < -1000 || d > 1000 {
			t.Fatalf("exchange seq %d ends %dns apart after alignment", seq, d)
		}
	}
}

func TestMergeDedupsBatchesAndStamps(t *testing.T) {
	m, err := Merge(synthIdentRun(t, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for _, e := range m.Events {
		if e.Origin == 0 {
			t.Fatalf("merged event not stamped: %+v", e)
		}
		if e.Kind == obs.KindBatch {
			batches++
		}
	}
	if batches != 1 || m.Report.DedupedBatches != 1 {
		t.Fatalf("batches=%d deduped=%d, want 1 and 1", batches, m.Report.DedupedBatches)
	}
}

func TestMergeLockstepViolation(t *testing.T) {
	traces := synthIdentRun(t, 2, 3)
	for i, e := range traces[1].Events {
		if e.Kind == obs.KindBatch {
			traces[1].Events[i].FwdRounds++
		}
	}
	_, err := Merge(traces)
	if err == nil || !strings.Contains(err.Error(), "lockstep") {
		t.Fatalf("divergent batch summaries not rejected: %v", err)
	}
}

func TestConservationHolds(t *testing.T) {
	m, err := Merge(synthIdentRun(t, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	c, err := CheckConservation(m.Events)
	if err != nil {
		t.Fatal(err)
	}
	if c.Links != 3*2*4 {
		t.Fatalf("checked %d links, want %d", c.Links, 24)
	}
	if c.Bytes == 0 || c.Messages != int64(c.Links) || c.Dense != int64(c.Links) {
		t.Fatalf("conserved totals %+v look wrong", c)
	}
	if err := CheckPairing(m.Events); err != nil {
		t.Fatal(err)
	}
}

func TestConservationNamesPerturbedLink(t *testing.T) {
	traces := synthIdentRun(t, 2, 3)
	// Flip one received byte count on host 1 (receiver side of 0->1).
	for i, e := range traces[1].Events {
		if e.Kind == obs.KindLink && e.Phase == obs.PhaseUnpack && e.Round == 2 {
			traces[1].Events[i].Bytes++
			break
		}
	}
	m, err := Merge(traces)
	if err != nil {
		t.Fatal(err)
	}
	_, err = CheckConservation(m.Events)
	var ce *ConservationError
	if !errors.As(err, &ce) {
		t.Fatalf("perturbed trace passed conservation: %v", err)
	}
	if ce.From != 0 || ce.To != 1 || ce.Round != 2 || ce.Field != "bytes" {
		t.Fatalf("violation named (%d->%d round %d %s), want (0->1 round 2 bytes)",
			ce.From, ce.To, ce.Round, ce.Field)
	}
}

func TestConservationUnreceived(t *testing.T) {
	traces := synthIdentRun(t, 2, 2)
	kept := traces[1].Events[:0]
	dropped := false
	for _, e := range traces[1].Events {
		if !dropped && e.Kind == obs.KindLink && e.Phase == obs.PhaseUnpack {
			dropped = true
			continue
		}
		kept = append(kept, e)
	}
	traces[1].Events = kept
	m, err := Merge(traces)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckConservation(m.Events); err == nil ||
		!strings.Contains(err.Error(), "never received") {
		t.Fatalf("lost delivery not caught: %v", err)
	}
}

func TestPairingCatchesMissingHost(t *testing.T) {
	traces := synthIdentRun(t, 2, 3)
	kept := traces[1].Events[:0]
	for _, e := range traces[1].Events {
		if e.Kind == obs.KindPhase && e.Phase == obs.PhaseExchange && e.Round == 3 {
			continue
		}
		kept = append(kept, e)
	}
	traces[1].Events = kept
	m, err := Merge(traces)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPairing(m.Events); err == nil ||
		!strings.Contains(err.Error(), "host 1") {
		t.Fatalf("missing participant not caught: %v", err)
	}
}

func TestRoundBoundsGlobal(t *testing.T) {
	m, err := Merge(synthIdentRun(t, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	// k=4, fwd=back=3: within the bound for an explicit H and for the
	// inferred one (fwd−k is negative, so H = 0).
	for _, h := range []int{3, 0} {
		if err := obs.CheckRoundBounds(m.Events, h); err != nil {
			t.Fatalf("H=%d: %v", h, err)
		}
	}
	// A batch that blew the bound must be rejected.
	traces := synthIdentRun(t, 2, 3)
	for h := range traces {
		for i, e := range traces[h].Events {
			if e.Kind == obs.KindBatch {
				traces[h].Events[i].FwdRounds = 100
				traces[h].Events[i].BackRounds = 100
			}
		}
	}
	m2, err := Merge(traces)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckRoundBounds(m2.Events, 3); err == nil {
		t.Fatal("blown round bound not caught")
	}
}

// TestRoundBoundsRejectLemma8Fixture runs the round-bound half of
// merge -check (which checks conservation first, and this fixture has
// no links) on the committed k=4, fwd=7, back=12 batch: the H the
// forward spans admit is 7−4 = 3, so 7+12+1 = 20 rounds exceed the
// bound 2(4+3)+1 = 15.
func TestRoundBoundsRejectLemma8Fixture(t *testing.T) {
	m, err := MergeFiles([]string{filepath.Join("..", "testdata", "lemma8_k4_fwd7_back12.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	evs := EpochEvents(m.Events, m.Report.Epochs[len(m.Report.Epochs)-1])
	err = obs.CheckRoundBounds(evs, 0)
	if err == nil || !strings.Contains(err.Error(), "bound 2(k+H)+1 = 15 (H=3)") {
		t.Fatalf("fixture not rejected with the inferred H=3: %v", err)
	}
}

// TestEpochRollbackAccounting merges a serial run's recovery, shaped
// as the serial batch loop records it: every pack is tagged batch 0,
// and the batches are told apart only by the checkpoint markers
// (carrying the next boundary) and the restore marker between them.
// Epoch 0 packs batch 0, checkpoints boundary 1, packs batch 1 and
// dies; epoch 1 restores from boundary 1 and repacks batch 1. Epoch
// 0's batch-1 work is discarded, everything else committed, and
// nothing is counted twice. A recovery without a restore marker
// restarted from batch 0.
func TestEpochRollbackAccounting(t *testing.T) {
	marker := func(h int, phase obs.Phase, boundary int32) obs.Event {
		return obs.Event{Kind: obs.KindElastic, Phase: phase, Batch: boundary, Host: int32(h)}
	}
	batch := func(h int, seq int64) []obs.Event {
		return []obs.Event{
			{Kind: obs.KindPhase, Seq: seq, Round: 1, Host: int32(h), Phase: obs.PhasePack,
				Bytes: 100, Messages: 1},
			{Kind: obs.KindPhase, Seq: seq, Round: 1, Host: -1, Phase: obs.PhaseExchange,
				StartNs: 1000 * seq, DurNs: 10},
		}
	}
	var all []HostTrace
	for h := 0; h < 2; h++ {
		ep0 := append(batch(h, 1), marker(h, obs.PhaseCheckpoint, 1))
		ep0 = append(ep0, batch(h, 2)...)
		ep1 := append([]obs.Event{marker(h, obs.PhaseRestore, 1)}, batch(h, 2)...)
		ep1 = append(ep1, marker(h, obs.PhaseCheckpoint, 2))
		all = append(all,
			HostTrace{Host: h, Epoch: 0, Hosts: 2, Events: ep0},
			HostTrace{Host: h, Epoch: 1, Hosts: 2, Events: ep1})
	}
	m, err := Merge(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Report.Rollbacks) != 1 ||
		m.Report.Rollbacks[0] != (Rollback{Epoch: 1, Batch: 1}) {
		t.Fatalf("rollbacks = %+v", m.Report.Rollbacks)
	}
	// Discarded: epoch 0 batch 1 → 2 hosts × 100. Committed: epoch 0
	// batch 0 (200) + epoch 1 batch 1 (200).
	if m.Report.DiscardedBytes != 200 || m.Report.CommittedBytes != 400 {
		t.Fatalf("discarded=%d committed=%d, want 200/400",
			m.Report.DiscardedBytes, m.Report.CommittedBytes)
	}
	if m.Report.DiscardedMessages != 2 || m.Report.CommittedMessages != 4 {
		t.Fatalf("discarded=%d committed=%d messages, want 2/4",
			m.Report.DiscardedMessages, m.Report.CommittedMessages)
	}

	// A recovery that found no common checkpoint restarts from batch 0
	// and restores nothing: all of epoch 0 is discarded.
	all = nil
	for h := 0; h < 2; h++ {
		ep0 := batch(h, 1)
		ep1 := append(batch(h, 1), marker(h, obs.PhaseCheckpoint, 1))
		all = append(all,
			HostTrace{Host: h, Epoch: 0, Hosts: 2, Events: ep0},
			HostTrace{Host: h, Epoch: 1, Hosts: 2, Events: ep1})
	}
	if m, err = Merge(all); err != nil {
		t.Fatal(err)
	}
	if len(m.Report.Rollbacks) != 1 || m.Report.Rollbacks[0] != (Rollback{Epoch: 1, Batch: 0}) ||
		m.Report.DiscardedBytes != 200 || m.Report.CommittedBytes != 200 {
		t.Fatalf("restart from scratch: rollbacks %+v, discarded=%d committed=%d, want batch 0, 200/200",
			m.Report.Rollbacks, m.Report.DiscardedBytes, m.Report.CommittedBytes)
	}
}

// TestRoundAccumBlamesSlowHostOnMerge folds a merged trace: every
// round keeps its one exchange (each host recorded a slice of it) and
// blames the slowest host.
func TestRoundAccumBlamesSlowHostOnMerge(t *testing.T) {
	// synthRun gives host h compute time ∝ (h+1): the last host always
	// bounds every round.
	m, err := Merge(synthIdentRun(t, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	var a obs.RoundAccum
	for _, e := range m.Events {
		a.Observe(e)
	}
	r := a.Report()
	if len(r.Rounds) != 4 || len(r.Setup) != 0 {
		t.Fatalf("folded %d rounds and %d setups, want 4 and 0", len(r.Rounds), len(r.Setup))
	}
	for _, rc := range r.Rounds {
		if rc.Host != 2 {
			t.Fatalf("round %d blamed host %d, want 2", rc.Round, rc.Host)
		}
		if rc.BoundNs <= rc.MeanNs {
			t.Fatalf("round %d: bound %dns not above mean %dns", rc.Round, rc.BoundNs, rc.MeanNs)
		}
		if rc.ExchangeNs != 30_000 {
			t.Fatalf("round %d: exchange %dns, want the one 30000ns exchange", rc.Round, rc.ExchangeNs)
		}
	}
	if len(r.Blame) != 1 || r.Blame[0].Host != 2 || r.Blame[0].Rounds != 4 || r.Blame[0].Share != 1 {
		t.Fatalf("blame ranking = %+v", r.Blame)
	}
}

func TestLoadToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	traces := synthIdentRun(t, 2, 2)
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, []obs.Event{obs.Header(0, 2, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(&buf, traces[0].Events); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	torn := append(append([]byte(nil), whole...), `{"kind":"phase","se`...)
	path := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	ht, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if ht.Host != 0 || ht.Hosts != 2 || len(ht.Events) != len(traces[0].Events) {
		t.Fatalf("torn trace loaded as host=%d hosts=%d events=%d", ht.Host, ht.Hosts, len(ht.Events))
	}
	// Corruption anywhere else stays an error.
	bad := bytes.Replace(whole, []byte(`"kind":"phase"`), []byte(`"kind":zzz`), 1)
	badPath := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(badPath); err == nil {
		t.Fatal("mid-file corruption not rejected")
	}
}
