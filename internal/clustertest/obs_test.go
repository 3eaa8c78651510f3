package clustertest

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"mrbc/internal/clusterrun"
	"mrbc/internal/elastic"
	"mrbc/internal/obs"
	"mrbc/internal/obs/merge"
)

// mergeBytes merges host traces and renders the cluster trace, the
// byte-identity currency of the determinism asserts.
func mergeBytes(t *testing.T, traces []merge.HostTrace) (*merge.Merged, []byte) {
	t.Helper()
	m, err := merge.Merge(traces)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return m, buf.Bytes()
}

// TestClusterShipTraceMergeProves is the observability-plane end-to-end:
// a real 4-process TCP run ships every host's trace over the control
// connections, the merge is deterministic (shipped vs. on-disk, any
// argument order — byte-identical), and the merged timeline proves the
// cross-host invariants exactly: conservation equal to the aggregate's
// paper-model volume, send/recv pairing, the global Lemma 8 bound, and
// a critical host attributed to every round.
func TestClusterShipTraceMergeProves(t *testing.T) {
	const hosts = 4
	c := launch(t, hosts)
	dir := t.TempDir()
	spec := baseSpec(t)
	spec.ShipTrace = true
	spec.TracePath = filepath.Join(dir, "trace")

	agg, err := runWithTimeout(t, c, spec, clusterrun.RunOptions{}, time.Minute)
	if err != nil {
		t.Fatalf("shipped run: %v", err)
	}

	var shipped []obs.Event
	for _, res := range agg.PerHost {
		if len(res.Trace) == 0 {
			t.Fatalf("host %d shipped no trace events", res.Host)
		}
		shipped = append(shipped, res.Trace...)
	}
	traces, err := merge.SplitEvents(shipped, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != hosts {
		t.Fatalf("shipped stream split into %d host traces, want %d", len(traces), hosts)
	}
	m, a := mergeBytes(t, traces)

	// Determinism 1: merging in a different order is byte-identical.
	rev := make([]merge.HostTrace, len(traces))
	for i, ht := range traces {
		rev[len(traces)-1-i] = ht
	}
	if _, b := mergeBytes(t, rev); !bytes.Equal(a, b) {
		t.Fatal("merged trace depends on input order")
	}
	// Determinism 2: the on-disk per-host streams (same events through
	// the StreamSink tee) merge to the identical cluster trace.
	paths := make([]string, hosts)
	for h := range paths {
		paths[h] = fmt.Sprintf("%s.host%d.jsonl", spec.TracePath, h)
	}
	mf, err := merge.MergeFiles(paths)
	if err != nil {
		t.Fatalf("merge files: %v", err)
	}
	var fbuf bytes.Buffer
	if err := mf.Encode(&fbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, fbuf.Bytes()) {
		t.Fatal("on-disk trace files merge differently than the shipped streams")
	}

	// Conservation: every link's sent tallies equal its received twin's,
	// and the conserved totals are exactly the run's paper-model volume.
	cons, err := merge.CheckConservation(m.Events)
	if err != nil {
		t.Fatalf("conservation: %v", err)
	}
	if cons.Bytes != agg.Bytes || cons.Messages != agg.Messages {
		t.Fatalf("conserved volume %d B/%d msgs != aggregate %d B/%d msgs",
			cons.Bytes, cons.Messages, agg.Bytes, agg.Messages)
	}
	if err := merge.CheckPairing(m.Events); err != nil {
		t.Fatalf("pairing: %v", err)
	}
	if err := obs.CheckRoundBounds(m.Events, 0); err != nil {
		t.Fatalf("global round bounds: %v", err)
	}

	// Critical-path attribution: every round names a real host, and the
	// blame shares account for all bounded time.
	var fold obs.RoundAccum
	for _, e := range m.Events {
		fold.Observe(e)
	}
	r := fold.Report()
	if len(r.Rounds) == 0 {
		t.Fatal("no rounds attributed")
	}
	for _, rc := range r.Rounds {
		if rc.Host < 0 || int(rc.Host) >= hosts {
			t.Fatalf("round %d blamed host %d (cluster has %d)", rc.Round, rc.Host, hosts)
		}
		if rc.BoundNs < rc.MeanNs {
			t.Fatalf("round %d: bound %d ns below the mean %d ns", rc.Round, rc.BoundNs, rc.MeanNs)
		}
	}
	// The unmerged per-host streams fold to the same rounds: each host's
	// slice of an exchange is never added to another's.
	var raw obs.RoundAccum
	for _, ht := range traces {
		for _, e := range ht.Events {
			raw.Observe(e)
		}
	}
	if n := len(raw.Report().Rounds); n != len(r.Rounds) {
		t.Fatalf("per-host streams fold to %d rounds, the merge to %d", n, len(r.Rounds))
	}
	var share float64
	for _, hb := range r.Blame {
		share += hb.Share
	}
	if math.Abs(share-1) > 1e-9 {
		t.Fatalf("blame shares sum to %g, want 1", share)
	}
}

// TestKilledHostLeavesParseablePartialTrace pins the durability
// contract of the streaming trace sink: a SIGKILLed daemon's partial
// per-host trace survives on disk and parses (identity intact, torn
// tail tolerated), and the survivors' shipped traces still merge into
// a multi-epoch cluster trace whose converged epoch proves
// conservation and whose report names the rollback.
func TestKilledHostLeavesParseablePartialTrace(t *testing.T) {
	const hosts, victim = 4, 1
	c := launchElastic(t, hosts, 1)
	dir := t.TempDir()
	spec := elasticSpec(t, filepath.Join(dir, "ckpt"))
	spec.TracePath = filepath.Join(dir, "trace")
	spec.ShipTrace = true

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			if elastic.LatestCommonBoundary(spec.CheckpointDir, hosts) >= 1 {
				if err := c.KillHost(victim); err != nil {
					t.Errorf("kill host %d: %v", victim, err)
				}
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	agg, rep, err := c.RunElastic(spec, clusterrun.ElasticOptions{Timeout: time.Minute})
	<-killed
	if err != nil {
		t.Fatalf("recovery failed: %v (report %+v)", err, rep)
	}
	if rep.Attempts < 2 || rep.Victims[0] != victim {
		t.Fatalf("expected a recovery from host %d's death, got %+v", victim, rep)
	}
	if diff := clusterrun.MaxScoreDiff(agg.Scores, oracle()); diff > 1e-9 {
		t.Fatalf("scores deviate from oracle by %g after recovery", diff)
	}

	// The victim was SIGKILLed mid-run: its attempt-0 stream must be on
	// disk, identified, and parseable up to the torn tail.
	ht, err := merge.Load(fmt.Sprintf("%s.host%d.jsonl", spec.TracePath, victim))
	if err != nil {
		t.Fatalf("victim's partial trace unreadable: %v", err)
	}
	if ht.Host != victim || ht.Epoch != 0 || ht.Hosts != hosts {
		t.Fatalf("victim's partial trace misidentified: %+v", ht)
	}
	if len(ht.Events) == 0 {
		t.Fatal("victim's partial trace carries no events")
	}

	// The shipped streams span both epochs; the merge keeps them apart
	// and its report names the rollback boundary the survivors resumed
	// from.
	traces, err := merge.SplitEvents(rep.ShippedTraces, hosts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := merge.Merge(traces)
	if err != nil {
		t.Fatalf("merge shipped epochs: %v", err)
	}
	fin := merge.FinalEpoch(m.Events)
	if fin < 1 {
		t.Fatalf("final epoch %d, want the recovery epoch", fin)
	}
	if len(m.Report.Rollbacks) != 1 || m.Report.Rollbacks[0].Batch != rep.ResumeBatches[0] {
		t.Fatalf("merge report rollbacks %+v disagree with the coordinator's %v",
			m.Report.Rollbacks, rep.ResumeBatches)
	}
	// The converged epoch proves out exactly; the killed epoch's torn
	// links are legitimately unpaired and stay out of it.
	evs := merge.EpochEvents(m.Events, fin)
	if _, err := merge.CheckConservation(evs); err != nil {
		t.Fatalf("converged epoch conservation: %v", err)
	}
	if err := obs.CheckRoundBounds(evs, 0); err != nil {
		t.Fatalf("converged epoch round bounds: %v", err)
	}
}
