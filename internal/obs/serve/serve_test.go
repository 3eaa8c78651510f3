package serve_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mrbc/internal/bitset"
	"mrbc/internal/dgalois"
	"mrbc/internal/gen"
	"mrbc/internal/gluon"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
	"mrbc/internal/obs/serve"
	"mrbc/internal/partition"
)

// populatedRegistry builds a registry exercising every instrument kind.
func populatedRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("test_ops_total").Add(42)
	reg.Gauge("test_depth").Set(-7)
	h := reg.Histogram("test_latency_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	cv := reg.CounterVec("test_host_bytes_total", "host", 3)
	cv.At(0).Add(10)
	cv.At(2).Add(30)
	gv := reg.GaugeVec("test_host_round", "host", 3)
	gv.At(1).Set(4)
	return reg
}

func TestWriteMetricsRoundTrips(t *testing.T) {
	reg := populatedRegistry()
	var a, b strings.Builder
	if err := serve.WriteMetrics(&a, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := serve.WriteMetrics(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two scrapes of an idle registry differ")
	}
	fams, err := serve.ParseMetrics(strings.NewReader(a.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, a.String())
	}
	if v := fams["test_ops_total"].Samples[0].Value; v != 42 {
		t.Fatalf("test_ops_total = %v, want 42", v)
	}
	if v := fams["test_depth"].Samples[0].Value; v != -7 {
		t.Fatalf("test_depth = %v, want -7", v)
	}
	hist := fams["test_latency_seconds"]
	if hist.Kind != "histogram" {
		t.Fatalf("test_latency_seconds kind = %q", hist.Kind)
	}
	// Buckets are cumulative: le=0.1 -> 1, le=1 -> 2, +Inf -> 3.
	wantBuckets := map[string]float64{"0.1": 1, "1": 2, "+Inf": 3}
	for _, s := range hist.Samples {
		if !strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		le := s.Labels["le"]
		if want, ok := wantBuckets[le]; !ok || s.Value != want {
			t.Fatalf("bucket le=%q = %v, want %v", le, s.Value, want)
		}
	}
	var hostBytes [3]float64
	for _, s := range fams["test_host_bytes_total"].Samples {
		switch s.Labels["host"] {
		case "0":
			hostBytes[0] = s.Value
		case "1":
			hostBytes[1] = s.Value
		case "2":
			hostBytes[2] = s.Value
		}
	}
	if hostBytes != [3]float64{10, 0, 30} {
		t.Fatalf("test_host_bytes_total = %v, want [10 0 30]", hostBytes)
	}
}

func TestParseMetricsRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "foo 1\n",
		"bad metric name":    "# TYPE bad-name counter\nbad-name 1\n",
		"bad value":          "# TYPE foo counter\nfoo abc\n",
		"duplicate sample":   "# TYPE foo counter\nfoo 1\nfoo 2\n",
		"duplicate TYPE":     "# TYPE foo counter\n# TYPE foo gauge\n",
		"bad label":          "# TYPE foo counter\nfoo{le-x=\"1\"} 1\n",
	}
	for name, page := range cases {
		if _, err := serve.ParseMetrics(strings.NewReader(page)); err == nil {
			t.Errorf("%s: parse accepted %q", name, page)
		}
	}
}

// TestProgressFromSnapshot pins the /progressz derivation on a
// synthetic snapshot: engine detection, per-host rows, straggler lag.
func TestProgressFromSnapshot(t *testing.T) {
	s := obs.Snapshot{
		Gauges: map[string]int64{
			"dgalois_round": 9,
			"mrbc_batch":    2,
			"mrbc_round":    5,
			"mrbc_frontier": 17,
			"mrbc_backward": 1,
		},
		GaugeVecs: map[string]obs.VecSnapshot{
			"dgalois_host_last_round": {Label: "host", Values: []int64{9, 7, 9}},
		},
		CounterVecs: map[string]obs.VecSnapshot{
			"dgalois_host_bytes_total":    {Label: "host", Values: []int64{100, 50, 75}},
			"dgalois_host_messages_total": {Label: "host", Values: []int64{4, 2, 3}},
		},
	}
	p := serve.ProgressFrom(s)
	if p.Engine != "mrbc" || p.Round != 9 || p.Batch != 2 || p.EngineRound != 5 ||
		p.Frontier != 17 || !p.Backward {
		t.Fatalf("progress = %+v", p)
	}
	if p.StragglerLag != 2 {
		t.Fatalf("straggler lag = %d, want 2 (rounds 9,7,9)", p.StragglerLag)
	}
	if len(p.Hosts) != 3 || p.Hosts[1].LastRound != 7 || p.Hosts[1].Bytes != 50 || p.Hosts[2].Messages != 3 {
		t.Fatalf("hosts = %+v", p.Hosts)
	}
}

// TestProgressDeadHostExcludedFromLag pins the elastic-runtime fix: a
// host the cluster declared dead (dgalois_host_alive = 0) is frozen at
// its last round forever, so it must be surfaced as dead and excluded
// from the straggler-lag spread rather than reported as an ever-growing
// lag. Runs predating the liveness gauge (no vector in the snapshot)
// keep the old everyone-is-alive reading.
func TestProgressDeadHostExcludedFromLag(t *testing.T) {
	s := obs.Snapshot{
		Gauges: map[string]int64{"dgalois_round": 40, "dgalois_epoch": 2},
		GaugeVecs: map[string]obs.VecSnapshot{
			"dgalois_host_last_round": {Label: "host", Values: []int64{40, 39, 12, 40}},
			"dgalois_host_alive":      {Label: "host", Values: []int64{1, 1, 0, 1}},
		},
	}
	p := serve.ProgressFrom(s)
	if p.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", p.Epoch)
	}
	if p.DeadHosts != 1 || p.Hosts[2].Alive || !p.Hosts[1].Alive {
		t.Fatalf("liveness not surfaced: %+v", p.Hosts)
	}
	if p.StragglerLag != 1 {
		t.Fatalf("straggler lag = %d, want 1 — host 2 is dead at round 12, not lagging by 28", p.StragglerLag)
	}

	// Without the liveness vector every host counts.
	delete(s.GaugeVecs, "dgalois_host_alive")
	p = serve.ProgressFrom(s)
	if p.DeadHosts != 0 || !p.Hosts[2].Alive {
		t.Fatalf("absent liveness vector must read as all-alive: %+v", p.Hosts)
	}
	if p.StragglerLag != 28 {
		t.Fatalf("legacy straggler lag = %d, want 28", p.StragglerLag)
	}
}

// TestProgressLiveStraggler pins liveness deterministically: with one
// host blocked inside a compute phase, a concurrent snapshot sees the
// finished host ahead of the blocked one.
func TestProgressLiveStraggler(t *testing.T) {
	reg := obs.NewRegistry()
	c := dgalois.NewClusterOpts(2, dgalois.ClusterOptions{Metrics: reg})
	defer c.Close()
	c.BeginRound()
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Compute(func(h int) {
			if h == 1 {
				<-release
			}
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p := serve.ProgressFrom(reg.Snapshot())
		if p.StragglerLag == 1 && len(p.Hosts) == 2 &&
			p.Hosts[0].LastRound == 1 && p.Hosts[1].LastRound == 0 {
			break
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("never observed host 1 lagging: %+v", p)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	// After the barrier the lag closes.
	if p := serve.ProgressFrom(reg.Snapshot()); p.StragglerLag != 0 {
		t.Fatalf("straggler lag after barrier = %d, want 0", p.StragglerLag)
	}
}

// TestClusterRoundGaugeAdvances pins that dgalois_round tracks
// BeginRound live, round by round.
func TestClusterRoundGaugeAdvances(t *testing.T) {
	reg := obs.NewRegistry()
	c := dgalois.NewClusterOpts(2, dgalois.ClusterOptions{Metrics: reg})
	defer c.Close()
	for r := 1; r <= 3; r++ {
		c.BeginRound()
		if got := serve.ProgressFrom(reg.Snapshot()).Round; got != int64(r) {
			t.Fatalf("after BeginRound #%d, Round = %d", r, got)
		}
	}
}

// TestServerEndpointsAgainstRealRun scrapes a server over the registry
// of a completed mrbcdist run and checks each endpoint: /metrics
// parses and its counters match Stats, /progressz reports the mrbc
// engine with consistent per-host volume, /statz decodes.
func TestServerEndpointsAgainstRealRun(t *testing.T) {
	g := gen.RMAT(7, 8, 3)
	pt := partition.EdgeCut(g, 2)
	reg := obs.NewRegistry()
	sources := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	_, stats := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: 4, Metrics: reg})

	srv := serve.New(reg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	fams, err := serve.ParseMetrics(strings.NewReader(get("/metrics")))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if v := fams["dgalois_rounds_total"].Samples[0].Value; int(v) != stats.Rounds {
		t.Fatalf("dgalois_rounds_total = %v, want %d", v, stats.Rounds)
	}
	if v := fams["dgalois_bytes_total"].Samples[0].Value; int64(v) != stats.Bytes {
		t.Fatalf("dgalois_bytes_total = %v, want %d", v, stats.Bytes)
	}
	if v := fams["dgalois_messages_total"].Samples[0].Value; int64(v) != stats.Messages {
		t.Fatalf("dgalois_messages_total = %v, want %d", v, stats.Messages)
	}
	var hostBytes, hostMsgs int64
	for _, s := range fams["dgalois_host_bytes_total"].Samples {
		hostBytes += int64(s.Value)
	}
	for _, s := range fams["dgalois_host_messages_total"].Samples {
		hostMsgs += int64(s.Value)
	}
	if hostBytes != stats.Bytes || hostMsgs != stats.Messages {
		t.Fatalf("per-host volume sums to (%d, %d), want (%d, %d)",
			hostBytes, hostMsgs, stats.Bytes, stats.Messages)
	}

	var p serve.Progress
	decodeJSON(t, get("/progressz"), &p)
	if p.Engine != "mrbc" {
		t.Fatalf("engine = %q, want mrbc", p.Engine)
	}
	if p.Round != int64(stats.Rounds) {
		t.Fatalf("round = %d, want %d", p.Round, stats.Rounds)
	}
	if len(p.Hosts) != 2 || p.StragglerLag != 0 {
		t.Fatalf("hosts after completed run: %+v", p)
	}
	var sum int64
	for _, h := range p.Hosts {
		sum += h.Bytes
	}
	if sum != stats.Bytes {
		t.Fatalf("progressz host bytes sum to %d, want %d", sum, stats.Bytes)
	}

	var snap obs.Snapshot
	decodeJSON(t, get("/statz"), &snap)
	if snap.Counters["dgalois_bytes_total"] != stats.Bytes {
		t.Fatalf("statz dgalois_bytes_total = %d, want %d",
			snap.Counters["dgalois_bytes_total"], stats.Bytes)
	}
}

// TestExchangeZeroAllocsWithServer extends the substrate's steady-state
// pin: attaching a live telemetry server (scraped before and after, not
// during, the measured window — AllocsPerRun counts process-global
// allocations) leaves Exchange at zero allocations per op.
func TestExchangeZeroAllocsWithServer(t *testing.T) {
	const hosts, listLen = 4, 2048
	reg := obs.NewRegistry()
	c := dgalois.NewClusterOpts(hosts, dgalois.ClusterOptions{Metrics: reg})
	defer c.Close()
	srv := serve.New(reg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var sink int64
	marked := make([]*bitset.Set, hosts)
	for from := range marked {
		marked[from] = bitset.New(listLen)
		for i := 0; i < listLen; i += from + 2 {
			marked[from].Set(i)
		}
	}
	pack := func(from, to int, w *gluon.Writer) {
		gluon.EncodeUpdates(w, listLen, marked[from], func(pos int, w *gluon.Writer) {
			w.U64(uint64(pos))
		})
	}
	unpack := func(to, from int, data []byte, dec *gluon.Decoder) {
		dec.DecodeUpdates(listLen, data, func(pos int, r *gluon.Reader) {
			atomic.AddInt64(&sink, int64(r.U64()))
		})
	}
	scrape := func() {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for i := 0; i < 3; i++ { // warm the pools, server live
		c.Exchange(pack, unpack)
	}
	scrape()
	allocs := testing.AllocsPerRun(10, func() {
		c.Exchange(pack, unpack)
	})
	scrape()
	if allocs != 0 {
		t.Fatalf("Exchange with server attached allocates %.1f objects/op, want 0", allocs)
	}
}

func decodeJSON(t *testing.T, body string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
}
