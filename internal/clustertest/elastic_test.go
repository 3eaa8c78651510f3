package clustertest

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"mrbc"
	"mrbc/internal/clusterrun"
	"mrbc/internal/elastic"
)

// launchElastic spawns a bcd cluster with a warm spare pool.
func launchElastic(t *testing.T, hosts, spares int) *clusterrun.Cluster {
	t.Helper()
	c, err := clusterrun.Launch(clusterrun.ClusterOptions{
		BcdPath: bcdPath,
		Hosts:   hosts,
		Spares:  spares,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("launch %d+%d-host cluster: %v", hosts, spares, err)
	}
	t.Cleanup(c.Close)
	return c
}

// elasticSpec is the checkpointing job every elastic test starts from:
// small batches so several boundary snapshots land inside the run, and
// a short reliability clock so a dead host is detected in ~0.5 s.
func elasticSpec(t *testing.T, dir string) clusterrun.JobSpec {
	spec := baseSpec(t)
	spec.Engine = "mrbcdist"
	spec.BatchSize = 2
	spec.CheckpointDir = dir
	spec.StepMillis = 2
	spec.DeadlineSteps = 250 // 0.5 s stall budget
	return spec
}

// elasticBaseline runs the elastic spec kill-free once and caches the
// cluster-level outcome — the volume-exactness reference.
var elasticBaseline *clusterrun.Aggregate

func baseline(t *testing.T, c *clusterrun.Cluster) *clusterrun.Aggregate {
	t.Helper()
	if elasticBaseline != nil {
		return elasticBaseline
	}
	spec := elasticSpec(t, t.TempDir())
	agg, err := runWithTimeout(t, c, spec, clusterrun.RunOptions{}, time.Minute)
	if err != nil {
		t.Fatalf("kill-free baseline: %v", err)
	}
	elasticBaseline = agg
	return agg
}

// TestElasticHostKillSweep is the TCP-level host-kill chaos sweep: for
// a battery of seeds, attempt 0 runs behind kill proxies that sever one
// host from the cluster at a seeded frame, and the elastic coordinator
// must identify that victim by survivor vote, replace its daemon, roll
// back to the latest common checkpoint boundary, and converge — with
// oracle-exact scores and the kill-free run's exact paper-model volume,
// the discarded attempt's traffic isolated in the recovery accounting.
func TestElasticHostKillSweep(t *testing.T) {
	const hosts = 4
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	c := launchElastic(t, hosts, 0)
	clean := baseline(t, c)

	for seed := 0; seed < seeds; seed++ {
		victim := seed % hosts
		frame := 2 + (seed*7)%36
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("seed%d", seed))
		spec := elasticSpec(t, dir)
		hook := func(attempt int, addrs []string) ([]string, func(), error) {
			if attempt > 0 {
				return addrs, nil, nil // recovery attempts run on a clean network
			}
			h, _ := clusterrun.InterposeProxies(clusterrun.KillPlans(hosts, victim, frame))
			return h(addrs)
		}
		agg, rep, err := c.RunElastic(spec, clusterrun.ElasticOptions{
			Timeout:  time.Minute,
			MapAddrs: hook,
		})
		if err != nil {
			t.Fatalf("seed=%d victim=%d frame=%d: recovery failed: %v (report %+v)", seed, victim, frame, err, rep)
		}
		if rep.Attempts != 2 {
			t.Fatalf("seed=%d: want exactly one killed attempt + one recovery, got %+v", seed, rep)
		}
		if len(rep.Victims) != 1 || rep.Victims[0] != victim {
			t.Fatalf("seed=%d: survivor vote misidentified the victim: want %d, got %v", seed, victim, rep.Victims)
		}
		if diff := mrbc.MaxAbsDifference(agg.Scores, oracle()); diff > 1e-9 {
			t.Fatalf("seed=%d: scores deviate from oracle by %g after recovery", seed, diff)
		}
		if agg.Bytes != clean.Bytes || agg.Messages != clean.Messages {
			t.Fatalf("seed=%d: paper-model volume polluted by recovery: got %d B/%d msgs, kill-free %d B/%d msgs",
				seed, agg.Bytes, agg.Messages, clean.Bytes, clean.Messages)
		}
		if rep.RecoveryBytes <= 0 || rep.RecoveryMessages <= 0 {
			t.Fatalf("seed=%d: discarded attempt's traffic not accounted: %+v", seed, rep)
		}
	}
}

// TestElasticSIGKILLAndReplace is the process-death smoke: one bcd
// daemon is SIGKILLed once the cluster has persisted a common
// checkpoint boundary, and the coordinator must detect the death on the
// control channel, promote the warm spare into the slot, resume from
// the boundary, and still produce oracle-exact scores with kill-free
// volume accounting.
func TestElasticSIGKILLAndReplace(t *testing.T) {
	const hosts, victim = 4, 2
	c := launchElastic(t, hosts, 1)
	clean := baseline(t, c)
	dir := t.TempDir()
	spec := elasticSpec(t, dir)

	// Kill the victim the moment every host has written its first
	// boundary snapshot — guaranteed mid-run, and guaranteed that the
	// rollback has a checkpoint to land on.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			if elastic.LatestCommonBoundary(dir, hosts) >= 1 {
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
	if rep.Attempts < 2 {
		t.Fatalf("daemon was SIGKILLed mid-run but no recovery happened: %+v", rep)
	}
	if len(rep.Victims) != rep.Attempts-1 {
		t.Fatalf("%d attempts but %d victims: every failed attempt names one", rep.Attempts, len(rep.Victims))
	}
	if rep.Victims[0] != victim {
		t.Fatalf("control channel misidentified the victim: want %d, got %v", victim, rep.Victims)
	}
	if rep.ResumeBatches[0] < 1 {
		t.Fatalf("kill landed after a persisted boundary, yet rollback restarted from scratch: %+v", rep)
	}
	if diff := mrbc.MaxAbsDifference(agg.Scores, oracle()); diff > 1e-9 {
		t.Fatalf("scores deviate from oracle by %g after SIGKILL recovery", diff)
	}
	if agg.Bytes != clean.Bytes || agg.Messages != clean.Messages {
		t.Fatalf("paper-model volume polluted: got %d B/%d msgs, kill-free %d B/%d msgs",
			agg.Bytes, agg.Messages, clean.Bytes, clean.Messages)
	}
	// The killed attempt's traffic is recovery cost, and less than a
	// whole clean run's: the kill landed before the run's end.
	if rep.RecoveryBytes <= 0 || rep.RecoveryBytes >= clean.Bytes {
		t.Fatalf("recovery bytes %d, want 0 < recovery < the kill-free run's %d", rep.RecoveryBytes, clean.Bytes)
	}
}
