package clusterrun

import (
	"fmt"
	"time"

	"mrbc/internal/elastic"
)

// Elastic coordination: RunElastic wraps the plain Run flow in a
// recovery loop. Every attempt checkpoints at source-batch boundaries
// into the shared CheckpointDir; when an attempt loses a host (daemon
// death seen as a broken control channel, or a network-isolated host
// seen as a quorum of survivor faults), the coordinator replaces the
// victim's daemon, rolls the cluster back to the latest boundary every
// host has persisted, bumps the membership epoch — so straggler
// connections from the dead attempt are rejected at hello — and
// resumes.

// ElasticOptions tunes the recovery loop.
type ElasticOptions struct {
	// Timeout bounds each attempt (default 60 s).
	Timeout time.Duration
	// MapAddrs, when non-nil, rewrites the address book per attempt
	// (the chaos suite interposes kill proxies on attempt 0 and passes
	// later attempts through clean).
	MapAddrs func(attempt int, addrs []string) ([]string, func(), error)
}

// ElasticReport describes how a RunElastic converged.
type ElasticReport struct {
	// Attempts is the total number of attempts, the successful one
	// included.
	Attempts int
	// Victims lists the host replaced after each failed attempt.
	Victims []int
	// ResumeBatches lists each recovery attempt's rollback boundary (0:
	// restarted from scratch — no common checkpoint existed).
	ResumeBatches []int
	// RecoveryBytes / RecoveryMessages total the paper-model volume the
	// surviving hosts of failed attempts sent past the boundary the next
	// attempt resumed from — the price of the faults, kept out of the
	// converged Aggregate's accounting (which counts the work below that
	// boundary through the restored snapshot).
	RecoveryBytes    int64
	RecoveryMessages int64
}

// RunElastic drives spec to completion across host deaths. The spec
// must name a CheckpointDir shared by all daemons; spec.Epoch is the
// base epoch (attempt a runs at Epoch base+a).
func (c *Cluster) RunElastic(spec JobSpec, opts ElasticOptions) (*Aggregate, *ElasticReport, error) {
	if spec.CheckpointDir == "" {
		return nil, nil, fmt.Errorf("clusterrun: RunElastic requires a CheckpointDir")
	}
	hosts := len(c.hosts)
	// Attempts, first run included: losing every host once is tolerated.
	maxAttempts := hosts + 1
	rep := &ElasticReport{}
	baseEpoch := spec.Epoch
	resume := spec.ResumeBatch
	for attempt := 0; attempt < maxAttempts; attempt++ {
		rep.Attempts = attempt + 1
		s := spec
		s.Epoch = baseEpoch + attempt
		s.ResumeBatch = resume
		if attempt > 0 {
			rep.ResumeBatches = append(rep.ResumeBatches, resume)
		}
		runOpts := RunOptions{Timeout: opts.Timeout}
		if opts.MapAddrs != nil {
			a := attempt
			runOpts.MapAddrs = func(addrs []string) ([]string, func(), error) { return opts.MapAddrs(a, addrs) }
		}
		results, hostErrs, err := c.runAttempt(s, attempt, runOpts)
		if err != nil {
			return nil, rep, err
		}
		for h := range results {
			if hostErrs[h] != nil {
				c.opts.logf("clusterrun: attempt %d: host %d control: %v", attempt+1, h, hostErrs[h])
			} else if results[h] != nil && results[h].Fault != nil {
				c.opts.logf("clusterrun: attempt %d: host %d fault: %+v", attempt+1, h, *results[h].Fault)
			}
		}
		victim, failed := identifyVictim(results, hostErrs)
		if !failed {
			agg, err := aggregate(results)
			return agg, rep, err
		}
		// Roll back to the latest boundary every host has persisted: the
		// failed attempt's work past it is discarded, and the next attempt
		// resumes from it, so it is both the accounting baseline and the
		// resume point.
		resume = elastic.LatestCommonBoundary(spec.CheckpointDir, hosts)
		db, dm := discardedVolume(spec.CheckpointDir, resume, results)
		rep.RecoveryBytes += db
		rep.RecoveryMessages += dm
		rep.Victims = append(rep.Victims, victim)
		if attempt+1 >= maxAttempts {
			return nil, rep, fmt.Errorf("clusterrun: attempt %d lost host %d and no attempts remain", attempt+1, victim)
		}
		if _, err := c.ReplaceHost(victim); err != nil {
			return nil, rep, fmt.Errorf("clusterrun: replace host %d: %w", victim, err)
		}
	}
	return nil, rep, fmt.Errorf("clusterrun: no attempts remain") // unreachable
}

// identifyVictim decides whether an attempt failed and which host to
// blame. A broken control channel wins outright — the daemon died.
// Otherwise the surviving hosts' structured faults vote: each fault
// names the peer it stalled on, self-votes are discarded (a host's own
// transport error often blames itself), and the most-accused host is
// the victim (lowest index on ties).
func identifyVictim(results []*JobResult, hostErrs []error) (victim int, failed bool) {
	for h, err := range hostErrs {
		if err != nil {
			return h, true
		}
	}
	votes := make(map[int]int)
	anyFault := false
	fallback := -1
	for h, res := range results {
		if res == nil || res.Fault == nil {
			continue
		}
		anyFault = true
		if fallback < 0 {
			fallback = res.Fault.Host
		}
		if res.Fault.Host != h && res.Fault.Host >= 0 && res.Fault.Host < len(results) {
			votes[res.Fault.Host]++
		}
	}
	if !anyFault {
		return 0, false
	}
	victim = fallback
	best := 0
	for h := 0; h < len(results); h++ {
		if votes[h] > best {
			best = votes[h]
			victim = h
		}
	}
	return victim, true
}

// discardedVolume totals the paper-model volume a failed attempt sent
// past the boundary the next attempt resumes from: each surviving
// host's reported counters minus the cursor in its snapshot at that
// boundary. Hosts with no result (the dead one) contribute nothing —
// their partial work was never reported.
func discardedVolume(dir string, boundary int, results []*JobResult) (bytes, msgs int64) {
	for h, res := range results {
		if res == nil {
			continue
		}
		var baseB, baseM int64
		if boundary > 0 {
			if sink, err := elastic.NewFileSink(dir, h); err == nil {
				if data, err := sink.Get(boundary); err == nil {
					if snap, err := elastic.Decode(data); err == nil {
						baseB, baseM = snap.Bytes, snap.Messages
					}
				}
			}
		}
		if d := res.Bytes - baseB; d > 0 {
			bytes += d
		}
		if d := res.Messages - baseM; d > 0 {
			msgs += d
		}
	}
	return bytes, msgs
}
