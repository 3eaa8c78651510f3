package clusterrun

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// Coordinator side: spawn N bcd daemons on localhost, drive jobs
// through their control connections, and aggregate per-host results
// into cluster-level scores and stats.

// readyPrefix is the line a bcd daemon prints once its control
// listener is bound; the remainder is the control address.
const readyPrefix = "BCD READY control="

// metricsPrefix is the line a bcd daemon spawned with -metrics prints
// (before its ready line); the remainder is the daemon's telemetry URL.
const metricsPrefix = "BCD METRICS "

// startTimeout bounds each daemon's time to print its ready line.
const startTimeout = 10 * time.Second

// ClusterOptions configures Launch.
type ClusterOptions struct {
	// BcdPath is the bcd binary to spawn.
	BcdPath string
	// Hosts is the number of daemon processes.
	Hosts int
	// Spares pre-launches this many standby daemons beyond Hosts; a
	// ReplaceHost adopts one from the pool (fast path for elastic
	// recovery) and falls back to spawning fresh when the pool is empty.
	Spares int
	// Metrics spawns every daemon with a live telemetry endpoint
	// (-metrics 127.0.0.1:0) and records the URL each prints, so the
	// coordinator can fan /progressz in across the cluster (bcctl's
	// /clusterz view).
	Metrics bool
	// Logf receives child stderr lines and lifecycle messages; nil
	// discards them.
	Logf func(format string, args ...any)
}

// daemon is one spawned bcd process, its control address, and (with
// opts.Metrics) the base URL of its telemetry endpoint.
type daemon struct {
	cmd     *exec.Cmd
	ctrl    string
	metrics string
	reaped  sync.Once
}

// reap waits for the process to exit. KillHost, ReplaceHost and Close
// may all get to the same daemon, and exec.Cmd.Wait must run only once.
func (d *daemon) reap() {
	d.reaped.Do(func() { d.cmd.Wait() })
}

// Cluster is a handle on a running set of bcd daemons. Daemons are
// persistent: Run may be called repeatedly (the chaos sweep runs many
// seeds against one spawned cluster); Close kills them. Host slots are
// mutable: KillHost takes a daemon down mid-run, ReplaceHost installs a
// spare (or a fresh spawn) into the dead host's slot.
type Cluster struct {
	opts ClusterOptions

	mu     sync.Mutex
	hosts  []*daemon // one per host slot
	spares []*daemon // standby pool
	closed bool
}

func (o ClusterOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Launch spawns opts.Hosts bcd daemons (plus opts.Spares standbys) and
// waits for each to report its control address. On any failure the
// already-started daemons are killed.
func Launch(opts ClusterOptions) (*Cluster, error) {
	if opts.Hosts <= 0 {
		return nil, fmt.Errorf("clusterrun: invalid host count %d", opts.Hosts)
	}
	c := &Cluster{opts: opts, hosts: make([]*daemon, opts.Hosts)}
	for h := 0; h < opts.Hosts; h++ {
		d, err := c.spawnDaemon(fmt.Sprintf("bcd[%d]", h))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.hosts[h] = d
	}
	for s := 0; s < opts.Spares; s++ {
		d, err := c.spawnDaemon(fmt.Sprintf("spare[%d]", s))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.spares = append(c.spares, d)
	}
	return c, nil
}

// spawnDaemon starts one bcd process and waits for its ready line. The
// tag labels the daemon's stderr in the coordinator log.
func (c *Cluster) spawnDaemon(tag string) (*daemon, error) {
	args := []string{"-listen", "127.0.0.1:0"}
	if c.opts.Metrics {
		args = append(args, "-metrics", "127.0.0.1:0")
	}
	cmd := exec.Command(c.opts.BcdPath, args...)
	stdout, err := cmd.StdoutPipe()
	if err == nil {
		cmd.Stderr = logWriter{c.opts.logf, tag + " "}
		err = cmd.Start()
	}
	if err != nil {
		return nil, fmt.Errorf("clusterrun: spawn %s: %w", tag, err)
	}
	addr, metrics, err := awaitReady(stdout, startTimeout)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("clusterrun: %s: %w", tag, err)
	}
	// Keep draining the child's stdout so it never blocks on a full
	// pipe.
	go io.Copy(io.Discard, stdout)
	return &daemon{cmd: cmd, ctrl: addr, metrics: metrics}, nil
}

// awaitReady scans the daemon's stdout for its ready line, collecting
// the metrics URL a -metrics daemon prints on the way (bcd emits it
// before the ready line). The metrics value is the endpoint's base URL.
func awaitReady(r io.Reader, timeout time.Duration) (string, string, error) {
	type res struct {
		addr    string
		metrics string
		err     error
	}
	ch := make(chan res, 1)
	br := bufio.NewReader(r)
	go func() {
		var metrics string
		for {
			line, err := br.ReadString('\n')
			s := strings.TrimSpace(line)
			if strings.HasPrefix(s, metricsPrefix) {
				metrics = strings.TrimSuffix(strings.TrimPrefix(s, metricsPrefix), "/metrics")
			}
			if strings.HasPrefix(s, readyPrefix) {
				ch <- res{addr: strings.TrimPrefix(s, readyPrefix), metrics: metrics}
				return
			}
			if err != nil {
				ch <- res{err: fmt.Errorf("exited before ready line: %w", err)}
				return
			}
		}
	}()
	select {
	case r := <-ch:
		return r.addr, r.metrics, r.err
	case <-time.After(timeout):
		return "", "", fmt.Errorf("no ready line within %v", timeout)
	}
}

// ControlAddrs returns the daemons' current control addresses (for
// tools that drive daemons directly).
func (c *Cluster) ControlAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, len(c.hosts))
	for h, d := range c.hosts {
		if d != nil {
			addrs[h] = d.ctrl
		}
	}
	return addrs
}

// MetricsAddrs returns the daemons' telemetry base URLs, indexed by
// host slot ("" for hosts spawned without opts.Metrics or whose slot is
// empty). The /clusterz fan-in polls <url>/progressz per host.
func (c *Cluster) MetricsAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, len(c.hosts))
	for h, d := range c.hosts {
		if d != nil {
			addrs[h] = d.metrics
		}
	}
	return addrs
}

// KillHost SIGKILLs host h's daemon mid-flight — the chaos lever the
// elastic smoke test pulls. The slot keeps pointing at the corpse until
// ReplaceHost installs a successor.
func (c *Cluster) KillHost(h int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h < 0 || h >= len(c.hosts) || c.hosts[h] == nil {
		return fmt.Errorf("clusterrun: kill host %d: no such daemon", h)
	}
	d := c.hosts[h]
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
		c.opts.logf("clusterrun: killed bcd[%d] (pid %d)", h, d.cmd.Process.Pid)
	}
	go d.reap()
	return nil
}

// ReplaceHost installs a new daemon in host h's slot, reaping whatever
// occupied it. A pre-launched spare is adopted when available;
// otherwise a fresh process is spawned. Returns the new control
// address.
func (c *Cluster) ReplaceHost(h int) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h < 0 || h >= len(c.hosts) {
		return "", fmt.Errorf("clusterrun: replace host %d: out of range", h)
	}
	if old := c.hosts[h]; old != nil && old.cmd.Process != nil {
		old.cmd.Process.Kill()
		go old.reap()
	}
	if n := len(c.spares); n > 0 {
		d := c.spares[n-1]
		c.spares = c.spares[:n-1]
		c.hosts[h] = d
		c.opts.logf("clusterrun: host %d replaced from spare pool (%d spares left)", h, n-1)
		return d.ctrl, nil
	}
	d, err := c.spawnDaemon(fmt.Sprintf("bcd[%d]'", h))
	if err != nil {
		return "", err
	}
	c.hosts[h] = d
	c.opts.logf("clusterrun: host %d replaced with fresh daemon", h)
	return d.ctrl, nil
}

// Close kills every daemon, spares included. Safe to call more than
// once.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	all := append(append([]*daemon(nil), c.hosts...), c.spares...)
	for _, d := range all {
		if d != nil && d.cmd.Process != nil {
			d.cmd.Process.Kill()
		}
	}
	for _, d := range all {
		if d != nil {
			d.reap()
		}
	}
}

// Aggregate is the cluster-level outcome of one job: elementwise-
// summed scores (per-host vectors are disjoint by master ownership),
// the common round count, summed volume, and the per-host results.
type Aggregate struct {
	Scores   []float64
	Rounds   int
	Bytes    int64
	Messages int64
	PerHost  []*JobResult
}

// RunOptions tunes one coordinated job.
type RunOptions struct {
	// Timeout bounds the whole job, prepare through results (default
	// 60 s). On expiry the job fails with an error — the daemons stay up.
	Timeout time.Duration
	// MapAddrs rewrites the transport address book after prepare and
	// before start — the hook the fault-proxy suite uses to interpose
	// proxies (entry h is what every peer dials to reach host h). Nil
	// passes the real addresses through. The returned closer (may be
	// nil) runs when the job finishes.
	MapAddrs func(addrs []string) ([]string, func(), error)
}

// Run drives one job across the cluster: prepare every daemon (fresh
// transport listeners), distribute the address book, start every host,
// and gather results. A structured per-host fault is returned as the
// *dgalois.FaultError the host sent; scores from faulted runs are
// discarded.
func (c *Cluster) Run(spec JobSpec, opts RunOptions) (*Aggregate, error) {
	results, hostErrs, err := c.runAttempt(spec, 0, opts)
	if err != nil {
		return nil, err
	}
	for _, err := range hostErrs {
		if err != nil {
			return nil, fmt.Errorf("clusterrun: %w", err)
		}
	}
	// A fault on any host fails the job with the first faulting host's
	// engine error.
	for _, res := range results {
		if res.Fault != nil {
			return nil, res.Fault
		}
	}
	return aggregate(results)
}

// runAttempt executes one coordinated job and returns the raw per-host
// outcome: results[h] on a completed control exchange (which may still
// carry a Fault), hostErrs[h] when host h's control channel broke — the
// signature of a dead daemon, which the elastic recovery loop uses to
// identify the victim. Setup failures (dial, prepare, start, proxy
// interposition) return a cluster-level error instead. The attempt
// index names the hosts' trace files (TraceFile).
func (c *Cluster) runAttempt(spec JobSpec, attempt int, opts RunOptions) ([]*JobResult, []error, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = 60 * time.Second
	}
	deadline := time.Now().Add(opts.Timeout)
	ctrl := c.ControlAddrs()
	hosts := len(ctrl)
	spec.Hosts = hosts

	// Phase 1: prepare — one control connection per daemon, kept open
	// for the job's whole lifetime.
	conns := make([]net.Conn, hosts)
	encs := make([]*json.Encoder, hosts)
	decs := make([]*json.Decoder, hosts)
	defer func() {
		for _, conn := range conns {
			if conn != nil {
				conn.Close()
			}
		}
	}()
	addrs := make([]string, hosts)
	for h := 0; h < hosts; h++ {
		conn, err := net.DialTimeout("tcp", ctrl[h], time.Until(deadline))
		if err != nil {
			return nil, nil, fmt.Errorf("clusterrun: dial control %d: %w", h, err)
		}
		conn.SetDeadline(deadline)
		conns[h] = conn
		encs[h] = json.NewEncoder(conn)
		decs[h] = json.NewDecoder(conn)
		if err := encs[h].Encode(controlRequest{Op: "prepare"}); err != nil {
			return nil, nil, fmt.Errorf("clusterrun: prepare %d: %w", h, err)
		}
		var rep controlReply
		if err := decs[h].Decode(&rep); err != nil {
			return nil, nil, fmt.Errorf("clusterrun: prepare reply %d: %w", h, err)
		}
		if !rep.OK {
			return nil, nil, fmt.Errorf("clusterrun: prepare %d: %s", h, rep.Err)
		}
		addrs[h] = rep.Transport
	}

	// Optional proxy interposition between the real listeners and the
	// address book the hosts dial through.
	book := addrs
	if opts.MapAddrs != nil {
		mapped, closer, err := opts.MapAddrs(addrs)
		if err != nil {
			return nil, nil, err
		}
		if closer != nil {
			defer closer()
		}
		book = mapped
	}

	// Phase 2: start all hosts, then collect every result. Starts go
	// out before any collection so the SPMD processes can rendezvous.
	for h := 0; h < hosts; h++ {
		s := spec
		s.Host = h
		s.Addrs = book
		if spec.TracePath != "" {
			s.TracePath = TraceFile(spec.TracePath, attempt, h)
		}
		if err := encs[h].Encode(controlRequest{Op: "start", Spec: &s}); err != nil {
			return nil, nil, fmt.Errorf("clusterrun: start %d: %w", h, err)
		}
	}
	results := make([]*JobResult, hosts)
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			var rep controlReply
			if err := decs[h].Decode(&rep); err != nil {
				errs[h] = fmt.Errorf("host %d: result: %w", h, err)
				return
			}
			if !rep.OK || rep.Result == nil {
				errs[h] = fmt.Errorf("host %d: %s", h, rep.Err)
				return
			}
			results[h] = rep.Result
		}(h)
	}
	wg.Wait()
	return results, errs, nil
}

// aggregate folds completed per-host results into the cluster-level
// outcome.
func aggregate(results []*JobResult) (*Aggregate, error) {
	agg := &Aggregate{Rounds: -1, PerHost: results}
	for _, res := range results {
		if agg.Scores == nil {
			agg.Scores = make([]float64, len(res.Scores))
		}
		if len(res.Scores) != len(agg.Scores) {
			return nil, fmt.Errorf("clusterrun: host %d returned %d scores, want %d", res.Host, len(res.Scores), len(agg.Scores))
		}
		for i, v := range res.Scores {
			agg.Scores[i] += v
		}
		agg.Bytes += res.Bytes
		agg.Messages += res.Messages
		// Every SPMD process executes the same BSP loop, so round counts
		// must agree exactly — a mismatch means the lockstep broke.
		if agg.Rounds < 0 {
			agg.Rounds = res.Rounds
		} else if res.Rounds != agg.Rounds {
			return nil, fmt.Errorf("clusterrun: host %d ran %d rounds, host 0 ran %d — SPMD lockstep broken", res.Host, res.Rounds, agg.Rounds)
		}
	}
	return agg, nil
}

// logWriter forwards child stderr lines to the coordinator's logger.
type logWriter struct {
	logf   func(format string, args ...any)
	prefix string
}

func (w logWriter) Write(p []byte) (int, error) {
	if w.logf != nil {
		for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
			w.logf("%s%s", w.prefix, line)
		}
	}
	return len(p), nil
}
