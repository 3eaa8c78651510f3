package chaostest

import (
	"net"
	"sync"
	"testing"
	"time"

	"mrbc/internal/clusterrun"
	"mrbc/internal/dgalois"
	"mrbc/internal/gluon"
)

// tcpOptions shortens the transport's reliability clock: an unacked
// record is retransmitted after 2 ms, and a peer that makes no progress
// for a second fails the exchange.
var tcpOptions = gluon.TCPOptions{StepInterval: time.Millisecond, RetrySteps: 2, DeadlineSteps: 1000}

// runBudget bounds one mesh run: a run still going after it counts as a
// hang.
const runBudget = 2 * time.Minute

// faultPlans builds one seeded proxy schedule per host, shaped like
// internal/clustertest's: drops, duplicates, delays and transient severs
// in the first 40 frames of a connection, and every dial from the
// fourth on clean, so each schedule is recoverable by construction.
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

// mesh is one SPMD cluster in this process: a gluon.TCPTransport per
// host over loopback, the way one bcd process per host would run it,
// with a clusterrun.FaultProxy in front of every listener when built
// with plans.
type mesh struct {
	nodes   []*gluon.TCPTransport
	proxies *clusterrun.ProxySet
}

// newMesh brings a mesh up. The test's cleanup tears it down, if close
// did not already.
func newMesh(t *testing.T, hosts int, plans []clusterrun.ProxyPlan) *mesh {
	t.Helper()
	lns := make([]net.Listener, hosts)
	addrs := make([]string, hosts)
	for h := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[h], addrs[h] = ln, ln.Addr().String()
	}
	m := &mesh{proxies: &clusterrun.ProxySet{}}
	t.Cleanup(m.close)
	if plans != nil {
		hook, set := clusterrun.InterposeProxies(plans)
		mapped, _, err := hook(addrs)
		if err != nil {
			t.Fatal(err)
		}
		addrs, m.proxies = mapped, set
	}
	for h := range lns {
		node, err := gluon.NewTCPTransport(h, addrs, lns[h], tcpOptions)
		if err != nil {
			t.Fatal(err)
		}
		m.nodes = append(m.nodes, node)
	}
	return m
}

// close shuts every endpoint, then every proxy. Safe to call twice.
func (m *mesh) close() {
	for _, node := range m.nodes {
		node.Close()
	}
	m.proxies.Close()
}

// meshRun is the outcome of one run over a mesh.
type meshRun struct {
	scores []float64 // the hosts' score vectors summed: exact, they are disjoint by master
	stats  []dgalois.Stats
	errs   []error
	net    []gluon.ChannelStats // each host's outgoing channels, summed
	faults int                  // fault decisions the proxies applied
}

// run runs fn once per host, side by side, each over its own endpoint,
// and fails the test if the run outlasts runBudget.
func (m *mesh) run(t *testing.T, fn func(h int, tr gluon.Transport) ([]float64, dgalois.Stats, error)) meshRun {
	t.Helper()
	hosts := len(m.nodes)
	r := meshRun{stats: make([]dgalois.Stats, hosts), errs: make([]error, hosts), net: make([]gluon.ChannelStats, hosts)}
	perHost := make([][]float64, hosts)
	var wg sync.WaitGroup
	for h, node := range m.nodes {
		wg.Add(1)
		go func(h int, node gluon.Transport) {
			defer wg.Done()
			perHost[h], r.stats[h], r.errs[h] = fn(h, node)
		}(h, node)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(runBudget):
		t.Fatalf("%d-host mesh run still going after %v", hosts, runBudget)
	}
	for _, scores := range perHost {
		if r.scores == nil {
			r.scores = make([]float64, len(scores))
		}
		for v, s := range scores {
			r.scores[v] += s
		}
	}
	for h, node := range m.nodes {
		for to := 0; to < hosts; to++ {
			r.net[h].Add(node.Stats(h, to))
		}
	}
	for _, log := range m.proxies.Logs() {
		r.faults += len(log)
	}
	return r
}

// requireOK fails the test on the first host that errored.
func (r meshRun) requireOK(t *testing.T, what string) {
	t.Helper()
	for h, err := range r.errs {
		if err != nil {
			t.Fatalf("%s: host %d: %v", what, h, err)
		}
	}
}
