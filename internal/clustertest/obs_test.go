package clustertest

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"time"

	"mrbc/internal/clusterrun"
	"mrbc/internal/elastic"
	"mrbc/internal/obs"
	"mrbc/internal/obs/merge"
)

// mergeFiles merges per-host trace files and renders the cluster
// trace, the byte-identity currency of the determinism asserts.
func mergeFiles(t *testing.T, paths []string) (*merge.Merged, []byte) {
	t.Helper()
	m, err := merge.MergeFiles(paths)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return m, buf.Bytes()
}

// TestClusterTraceFilesMergeProve is the observability-plane
// end-to-end: a real 4-process TCP run streams every host's trace to
// its file, the merge of the files is deterministic (any argument
// order — byte-identical), and the merged timeline proves the
// cross-host invariants exactly: conservation equal to the aggregate's
// paper-model volume, send/recv pairing, the global Lemma 8 bound, and
// a critical host attributed to every round.
func TestClusterTraceFilesMergeProve(t *testing.T) {
	const hosts = 4
	c := launch(t, hosts)
	spec := baseSpec(t)
	spec.TracePath = filepath.Join(t.TempDir(), "trace")

	agg, err := runWithTimeout(t, c, spec, clusterrun.RunOptions{}, time.Minute)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}

	paths := clusterrun.TraceFiles(spec.TracePath, 1, hosts)
	if len(paths) != hosts {
		t.Fatalf("found %d host trace files, want %d", len(paths), hosts)
	}
	m, a := mergeFiles(t, paths)

	// Determinism: merging in a different order is byte-identical.
	rev := make([]string, len(paths))
	for i, p := range paths {
		rev[len(paths)-1-i] = p
	}
	if _, b := mergeFiles(t, rev); !bytes.Equal(a, b) {
		t.Fatal("merged trace depends on input order")
	}

	// Conservation (every link's sent tallies equal its received
	// twin's), pairing and the global round bound hold, and the conserved
	// totals are exactly the run's paper-model volume.
	_, cons, err := m.CheckFinalEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if cons.Bytes != agg.Bytes || cons.Messages != agg.Messages {
		t.Fatalf("conserved volume %d B/%d msgs != aggregate %d B/%d msgs",
			cons.Bytes, cons.Messages, agg.Bytes, agg.Messages)
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
	// The unmerged per-host files fold to the same rounds: each host's
	// slice of an exchange is never added to another's.
	var raw obs.RoundAccum
	for _, p := range paths {
		ht, err := merge.Load(p)
		if err != nil {
			t.Fatal(err)
		}
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
// tail tolerated), and every attempt's files merge into a multi-epoch
// cluster trace that keeps the victim's events, proves the converged
// epoch, names the rollback, and itemizes the rolled-back work the
// coordinator charged as recovery.
func TestKilledHostLeavesParseablePartialTrace(t *testing.T) {
	const hosts, victim = 4, 1
	c := launchElastic(t, hosts, 1)
	dir := t.TempDir()
	spec := elasticSpec(t, filepath.Join(dir, "ckpt"))
	spec.TracePath = filepath.Join(dir, "trace")

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
	ht, err := merge.Load(clusterrun.TraceFile(spec.TracePath, 0, victim))
	if err != nil {
		t.Fatalf("victim's partial trace unreadable: %v", err)
	}
	if ht.Host != victim || ht.Epoch != 0 || ht.Hosts != hosts {
		t.Fatalf("victim's partial trace misidentified: %+v", ht)
	}
	if len(ht.Events) == 0 {
		t.Fatal("victim's partial trace carries no events")
	}

	// Every attempt's files span both epochs; the merge keeps them
	// apart, keeps the victim's partial epoch 0, and its report names
	// the rollback boundary the survivors resumed from.
	m, err := merge.MergeFiles(clusterrun.TraceFiles(spec.TracePath, rep.Attempts, hosts))
	if err != nil {
		t.Fatalf("merge every attempt's files: %v", err)
	}
	var victimPacks int
	for _, e := range m.Events {
		if e.OriginHost() == victim && e.Epoch == 0 && e.Kind == obs.KindPhase && e.Phase == obs.PhasePack {
			victimPacks++
		}
	}
	if victimPacks == 0 {
		t.Fatal("merged trace lost the victim's epoch-0 packs")
	}
	fin, _, err := m.CheckFinalEpoch()
	if err != nil {
		t.Fatalf("converged epoch: %v", err)
	}
	if fin < 1 {
		t.Fatalf("final epoch %d, want the recovery epoch", fin)
	}
	if len(m.Report.Rollbacks) != 1 || m.Report.Rollbacks[0].Batch != rep.ResumeBatches[0] {
		t.Fatalf("merge report rollbacks %+v disagree with the coordinator's %v",
			m.Report.Rollbacks, rep.ResumeBatches)
	}
	// The survivors' files are complete, so the coordinator's recovery
	// volume is exactly their share of what the merge discarded; the
	// victim's partial share makes up the rest.
	if m.Report.DiscardedBytes <= 0 {
		t.Fatalf("merge discarded no volume across a rollback: %+v", m.Report)
	}
	if rep.RecoveryBytes <= 0 || rep.RecoveryBytes > m.Report.DiscardedBytes {
		t.Fatalf("recovery bytes %d outside (0, %d], the merge's discarded volume",
			rep.RecoveryBytes, m.Report.DiscardedBytes)
	}
}
