package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"

	"mrbc/internal/brandes"
)

// config is the settings of one workload invocation.
type config struct {
	w       workload
	seed    int64
	seconds float64 // how long the measuring loop runs
	runs    int     // > 0: exactly this many timed runs instead
	smoke   bool
	// tracePath is where a layer run dumps its Chrome trace ("": nowhere).
	tracePath string
	log       io.Writer
}

// minRuns is the floor of timed runs a recorded median rests on.
const minRuns = 5

// setup_s is the median of setUps samples, each the mean of setUpGroup
// set-ups run back to back (one set-up takes milliseconds, too short
// to time singly on a shared machine), after setUpWarm unrecorded
// samples that take the cold page faults and heap growth.
const (
	setUps     = 15
	setUpGroup = 4
	setUpWarm  = 1
)

// outcome is what one invocation reports.
type outcome struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
}

// meter measures one engine call: wall, CPU and heap traffic between
// start and stop. start collects garbage first so every run begins
// from the same heap.
type meter struct {
	wall     time.Duration
	cpu      float64 // user+sys seconds
	allocMB  float64 // runtime.MemStats.TotalAlloc delta
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration

	t0   time.Time
	cpu0 float64
	mem0 runtime.MemStats
}

func (m *meter) start() {
	runtime.GC()
	runtime.ReadMemStats(&m.mem0)
	m.cpu0 = cpuSeconds()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall = time.Since(m.t0)
	m.cpu = cpuSeconds() - m.cpu0
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.allocMB = float64(mem.TotalAlloc-m.mem0.TotalAlloc) / 1e6
	m.mallocs = mem.Mallocs - m.mem0.Mallocs
	m.gcCycles = mem.NumGC - m.mem0.NumGC
	m.gcPause = time.Duration(mem.PauseTotalNs - m.mem0.PauseTotalNs)
	m.mem0 = runtime.MemStats{} // 5 KB a run is kept for; only the deltas matter
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) * 1024 / 1e6 }

// buildJob makes the workload's inputs from the seed: the graph, the
// source chunk, and the Brandes scores every run is checked against.
func buildJob(cfg config, spans *spanLog) (j *job, genS, brandesS float64) {
	sz := cfg.w.full
	if cfg.smoke {
		sz = cfg.w.smoke
	}
	j = &job{w: cfg.w}
	genS = spans.in("gen", 0, func() { j.g = sz.graph(cfg.seed) }).Seconds()
	j.sources = sourceChunk(j.g, sz.sources)
	brandesS = spans.in("brandes.Sequential", 0, func() { j.oracle = brandes.Sequential(j.g, j.sources) }).Seconds()
	return j, genS, brandesS
}

// gatekeeper is the oracle and determinism gate: every run, timed or
// traced, is compared with Brandes and with the first run's counts.
type gatekeeper struct {
	j         *job
	log       io.Writer
	ref       *counts
	attempted int
	failed    int
	maxErr    float64
}

func (k *gatekeeper) check(label string, r runResult, err error) bool {
	k.attempted++
	why := ""
	if err != nil {
		why = err.Error()
	} else {
		e := maxAbsDiff(r.scores, k.j.oracle)
		if e > k.maxErr || math.IsNaN(e) {
			k.maxErr = e
		}
		switch {
		case !(e <= errTolerance):
			why = fmt.Sprintf("max |score - Brandes| = %g exceeds %g", e, errTolerance)
		case k.ref == nil:
			c := r.counts
			k.ref = &c
		case r.counts != *k.ref:
			why = fmt.Sprintf("counts %+v differ from the first run's %+v", r.counts, *k.ref)
		}
	}
	if why != "" {
		k.failed++
		fmt.Fprintf(k.log, "  %s FAILED: %s\n", label, why)
		return false
	}
	return true
}

func (k *gatekeeper) report(set metricSet) {
	c := counts{}
	if k.ref != nil {
		c = *k.ref
	}
	set.put("rounds", float64(c.Rounds))
	set.put("comm_bytes", float64(c.Bytes))
	set.put("comm_messages", float64(c.Messages))
	set.put("max_abs_err", k.maxErr)
	set.put("failed_share", float64(k.failed)/float64(max(k.attempted, 1)))
}

// repeatSetUp takes n samples of the job's set-up, each from a
// collected heap, and returns the per-part times.
func repeatSetUp(j *job, spans *spanLog, n int) (cut, topo, up []float64, err error) {
	for i := -setUpWarm; i < n; i++ {
		runtime.GC()
		var c, t, u time.Duration
		for k := 0; k < setUpGroup; k++ {
			ck, tk, uk, err := j.setUp(spans)
			if err != nil {
				return nil, nil, nil, err
			}
			c, t, u = c+ck, t+tk, u+uk
		}
		if i >= 0 {
			cut = append(cut, c.Seconds()/setUpGroup)
			topo = append(topo, t.Seconds()/setUpGroup)
			up = append(up, u.Seconds()/setUpGroup)
		}
	}
	return cut, topo, up, nil
}

// measureEndToEnd is the tracing-off measurement: set-up repeated,
// one warm-up run, then timed runs until cfg.seconds have passed.
func measureEndToEnd(cfg config) (outcome, error) {
	spans := newSpanLog()
	j, _, _ := buildJob(cfg, spans)
	n := setUps
	if cfg.smoke {
		n = 2
	}
	cut, topo, up, err := repeatSetUp(j, spans, n)
	if err != nil {
		return outcome{}, err
	}
	setup := make([]float64, n)
	for i := range setup {
		setup[i] = cut[i] + topo[i] + up[i]
	}

	gate := &gatekeeper{j: j, log: cfg.log}
	r, err := j.run(nil)
	gate.check("warm-up", r, err)

	var wall, alloc, perSE []float64
	work := float64(len(j.sources)) * float64(j.g.NumEdges())
	start := time.Now()
	for i := 1; ; i++ {
		if cfg.runs > 0 {
			if i > cfg.runs {
				break
			}
		} else if i > minRuns && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		r, err := j.run(nil)
		ok := gate.check(fmt.Sprintf("run %d", i), r, err)
		if !ok {
			continue
		}
		wall = append(wall, r.cost.wall.Seconds())
		alloc = append(alloc, r.cost.allocMB)
		perSE = append(perSE, float64(r.cost.wall.Nanoseconds())/work)
		line := fmt.Sprintf("  run %d: wall %.4f s, cpu %.4f s, alloc %.1f MB", i, r.cost.wall.Seconds(), r.cost.cpu, r.cost.allocMB)
		if j.w.tcp {
			// A retransmission inflates the sample it lands in; show it.
			line += fmt.Sprintf(", gluon.tcp_retries %d", r.chans.Retries)
		}
		fmt.Fprintln(cfg.log, line)
	}

	set := metricSet{}
	set.sampled("ns_per_source_edge", perSE)
	set.sampled("wall_s", wall)
	set.sampled("setup_s", setup)
	set.sampled("alloc_mb", alloc)
	set.put("peak_rss_mb", peakRSSMB())
	gate.report(set)
	return outcome{
		Workload: cfg.w.name, Correct: gate.failed == 0 && len(wall) > 0,
		Attempted: gate.attempted, Failed: gate.failed,
		Metrics: set.ordered(func(d def) bool { return d.class != layer }),
	}, nil
}
