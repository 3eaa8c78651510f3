package clustertest

import (
	"errors"
	"testing"
	"time"

	"mrbc"
	"mrbc/internal/clusterrun"
	"mrbc/internal/dgalois"
)

// faultPlans builds one seeded schedule per host: drops, duplicates,
// delays, and transient severs in the early frames of every
// connection, with the plan's CleanAfter guarantee making each
// schedule recoverable by construction.
func faultPlans(seed uint64, hosts int) []clusterrun.ProxyPlan {
	plans := make([]clusterrun.ProxyPlan, hosts)
	for h := range plans {
		plans[h] = clusterrun.ProxyPlan{
			Seed:        seed<<8 | uint64(h),
			DropPct:     12,
			DupPct:      10,
			DelayPct:    10,
			SeverPct:    4,
			FaultFrames: 40,
			CleanAfter:  4,
			MaxDelay:    2 * time.Millisecond,
		}
	}
	return plans
}

// faultSpec shortens the transport's reliability clock so recovery
// (retransmit after RetrySteps, stall detection after DeadlineSteps)
// plays out in milliseconds instead of seconds.
func faultSpec(t *testing.T) clusterrun.JobSpec {
	spec := baseSpec(t)
	spec.Engine = "mrbcdist"
	spec.StepMillis = 2
	spec.DeadlineSteps = 1500 // 3 s stall budget
	return spec
}

// TestSeededFaultSchedules runs the full job through deterministic
// socket-level fault proxies for a battery of seeds — ≥20 in -short
// mode, a wider sweep otherwise (CI's chaos job runs the full sweep).
// Every schedule must recover through ack/retry/re-dial and still
// produce oracle-exact scores; the decision logs double-check that the
// proxies applied exactly the pure schedule function.
func TestSeededFaultSchedules(t *testing.T) {
	const hosts = 4
	seeds := 60
	if testing.Short() {
		seeds = 20
	}
	c := launch(t, hosts)
	for seed := 0; seed < seeds; seed++ {
		plans := faultPlans(uint64(seed)*0x9e3779b9+1, hosts)
		hook, set := clusterrun.InterposeProxies(plans)
		agg, err := runWithTimeout(t, c, faultSpec(t), clusterrun.RunOptions{MapAddrs: hook}, time.Minute)
		if err != nil {
			t.Fatalf("seed %d: recoverable schedule failed: %v", seed, err)
		}
		if diff := mrbc.MaxAbsDifference(agg.Scores, oracle()); diff > 1e-9 {
			t.Fatalf("seed %d: scores deviate from oracle by %g under faults", seed, diff)
		}

		var faulted, recovery int
		for h, log := range set.Logs() {
			faulted += len(log)
			for _, d := range log {
				if got := plans[h].Decide(d.From, d.Attempt, d.Frame); got != d.Act {
					t.Fatalf("seed %d: proxy %d applied %v at (from=%d attempt=%d frame=%d), schedule says %v",
						seed, h, d.Act, d.From, d.Attempt, d.Frame, got)
				}
			}
		}
		for _, res := range agg.PerHost {
			recovery += int(res.Retries + res.Redials)
		}
		if faulted > 0 && recovery == 0 {
			// Dup/delay-only schedules legitimately need no retries; log
			// rather than fail so the sweep still documents its coverage.
			t.Logf("seed %d: %d faults applied, no retries needed", seed, faulted)
		}
	}
}

// TestFaultScheduleDeterminism pins the schedule function itself:
// equal plans make equal decisions over the whole (from, attempt,
// frame) grid, distinct seeds diverge, and the recoverability
// guarantees (clean past the window, clean past CleanAfter) hold for
// every key.
func TestFaultScheduleDeterminism(t *testing.T) {
	a := faultPlans(42, 4)
	b := faultPlans(42, 4)
	other := faultPlans(43, 4)
	diverged := false
	for h := range a {
		for from := -1; from < 4; from++ {
			for attempt := 0; attempt < 8; attempt++ {
				for frame := -1; frame < 64; frame++ {
					got, again := a[h].Decide(from, attempt, frame), b[h].Decide(from, attempt, frame)
					if got != again {
						t.Fatalf("plan %d: Decide(%d,%d,%d) unstable: %v then %v", h, from, attempt, frame, got, again)
					}
					if got != other[h].Decide(from, attempt, frame) {
						diverged = true
					}
					if attempt >= a[h].CleanAfter && got != clusterrun.ActNone {
						t.Fatalf("plan %d: attempt %d ≥ CleanAfter %d not clean: %v", h, attempt, a[h].CleanAfter, got)
					}
					if frame >= a[h].FaultFrames && got != clusterrun.ActNone {
						t.Fatalf("plan %d: frame %d past window %d not clean: %v", h, frame, a[h].FaultFrames, got)
					}
				}
			}
		}
	}
	if !diverged {
		t.Error("seeds 42 and 43 produced identical schedules across the whole grid")
	}
}

// TestPermanentSeverFaults isolates one host completely and asserts
// the failure mode the whole transport design promises: a structured
// *dgalois.FaultError naming the dead peer, never a hang. The
// transport clock is shortened so detection takes ~200ms.
func TestPermanentSeverFaults(t *testing.T) {
	const hosts, victim = 4, 2
	c := launch(t, hosts)
	spec := faultSpec(t)
	spec.DeadlineSteps = 150 // 300 ms stall budget
	hook, _ := clusterrun.InterposeProxies(clusterrun.SeverPlans(hosts, victim))

	_, err := runWithTimeout(t, c, spec, clusterrun.RunOptions{MapAddrs: hook}, time.Minute)
	if err == nil {
		t.Fatal("job with a fully severed host reported success")
	}
	var fe *dgalois.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("severed host surfaced as %T (%v), want *dgalois.FaultError", err, err)
	}
	if fe.Host != victim {
		t.Errorf("fault implicates host %d, severed host is %d (%v)", fe.Host, victim, fe)
	}

	// The cluster must stay serviceable after the failed job.
	clean := baseSpec(t)
	clean.Engine = "mrbcdist"
	agg, err := runWithTimeout(t, c, clean, clusterrun.RunOptions{}, time.Minute)
	if err != nil {
		t.Fatalf("clean job after severed job: %v", err)
	}
	if diff := mrbc.MaxAbsDifference(agg.Scores, oracle()); diff > 1e-9 {
		t.Fatalf("post-sever scores deviate by %g", diff)
	}
}
