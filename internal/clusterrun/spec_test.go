package clusterrun

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/dgalois"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
	"mrbc/internal/sbbc"
)

// savedGraph writes a small power-law graph where RunJob will load it
// from, as the daemons do.
func savedGraph(t *testing.T) (*graph.Graph, string) {
	t.Helper()
	g := gen.RMAT(7, 8, 11)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	return g, path
}

// TestRunJobMatchesEngines: with no transport RunJob runs the whole
// simulated cluster, so its result must be the engine's own, bit for
// bit — the spec adds a file load and a partition name, nothing else.
func TestRunJobMatchesEngines(t *testing.T) {
	g, path := savedGraph(t)
	sources := brandes.FirstKSources(g, 0, 24)
	const hosts = 4
	for _, part := range []string{"edge-cut", "cartesian"} {
		pt, err := BuildPartitioning(g, part, hosts)
		if err != nil {
			t.Fatal(err)
		}
		type jobCase struct {
			name   string
			spec   JobSpec
			scores []float64
			stats  dgalois.Stats
		}
		scores, stats := sbbc.Run(g, pt, sources)
		cases := []jobCase{{"sbbc", JobSpec{Engine: "sbbc"}, scores, stats}}
		for _, depth := range []int{0, 2} {
			scores, stats := mrbcdist.Run(g, pt, sources, mrbcdist.Options{BatchSize: 8, PipelineDepth: depth})
			cases = append(cases, jobCase{fmt.Sprintf("mrbcdist/depth%d", depth),
				JobSpec{Engine: "mrbcdist", BatchSize: 8, PipelineDepth: depth}, scores, stats})
		}
		for _, c := range cases {
			spec := c.spec
			spec.GraphPath, spec.Partition, spec.Hosts, spec.Sources = path, part, hosts, sources
			res, err := RunJob(&spec, nil, nil, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", part, c.name, err)
			}
			if res.Fault != nil {
				t.Fatalf("%s/%s: fault %+v", part, c.name, res.Fault)
			}
			if res.Rounds != c.stats.Rounds || res.Bytes != c.stats.Bytes || res.Messages != c.stats.Messages {
				t.Errorf("%s/%s: %d rounds / %d B / %d msgs, engine %d / %d / %d", part, c.name,
					res.Rounds, res.Bytes, res.Messages, c.stats.Rounds, c.stats.Bytes, c.stats.Messages)
			}
			if len(res.Scores) != len(c.scores) {
				t.Fatalf("%s/%s: %d scores, engine %d", part, c.name, len(res.Scores), len(c.scores))
			}
			for v := range c.scores {
				if math.Float64bits(res.Scores[v]) != math.Float64bits(c.scores[v]) {
					t.Fatalf("%s/%s: score[%d] = %v, engine %v", part, c.name, v, res.Scores[v], c.scores[v])
				}
			}
		}
	}
}

// specRefusal is a spec edit RunJob must refuse, and the text its error
// must name.
type specRefusal struct {
	want string
	edit func(*JobSpec)
}

// malformedSpecs are the start specs a partitioner, cluster or engine
// would panic on: a daemon handed one must refuse the job and live.
func malformedSpecs(t *testing.T) []specRefusal {
	empty := filepath.Join(t.TempDir(), "empty.bin")
	if err := graph.FromEdges(0, nil).Save(empty); err != nil {
		t.Fatal(err)
	}
	return []specRefusal{
		{"source 1073741824 out of range", func(s *JobSpec) { s.Sources = []uint32{1 << 30} }},
		{"invalid host count 0", func(s *JobSpec) { s.Hosts = 0 }},
		{"addrs for", func(s *JobSpec) { s.Addrs = append(s.Addrs, "127.0.0.1:1") }},
		{"empty graph", func(s *JobSpec) { s.GraphPath = empty }},
		{`unknown partition "vertexcut"`, func(s *JobSpec) { s.Partition = "vertexcut" }},
		{`unknown partition "edgecut"`, func(s *JobSpec) { s.Partition = "edgecut" }},
	}
}

// TestRunJobRefusals: a spec RunJob cannot honour fails before any engine
// starts — no result, nothing registered for a cluster, no checkpoint
// directory created.
func TestRunJobRefusals(t *testing.T) {
	_, path := savedGraph(t)
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	base := JobSpec{GraphPath: path, Hosts: 2, Sources: []uint32{0, 1}}
	for _, c := range append([]specRefusal{
		{"load graph", func(s *JobSpec) { s.GraphPath = filepath.Join(ckpt, "missing.bin") }},
		{`unknown engine "brandes"`, func(s *JobSpec) { s.Engine = "brandes" }},
		{"resume_batch 2 without checkpoint_dir", func(s *JobSpec) { s.ResumeBatch = 2 }},
		{"requires serial batches", func(s *JobSpec) { s.CheckpointDir, s.PipelineDepth = ckpt, 2 }},
		{"does not support checkpoint/resume", func(s *JobSpec) { s.Engine, s.CheckpointDir = "sbbc", ckpt }},
		{"does not support checkpoint/resume", func(s *JobSpec) { s.Engine, s.ResumeBatch = "sbbc", 1 }},
	}, malformedSpecs(t)...) {
		spec := base
		c.edit(&spec)
		reg := obs.NewRegistry()
		res, err := RunJob(&spec, nil, nil, reg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want an error naming %q, got %v", c.want, err)
		}
		if res != nil {
			t.Errorf("%s: refused job returned a result", c.want)
		}
		if snap := reg.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.CounterVecs) != 0 {
			t.Errorf("%s: refused job populated the registry: %+v", c.want, snap)
		}
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused job created the checkpoint directory (stat: %v)", err)
	}
}

// TestServeControlSurvivesRefusedStart: a daemon answers each malformed
// start spec with an error naming the problem, keeps serving, and runs
// the next valid job — a one-host job over its own TCP transport — to
// oracle-exact scores.
func TestServeControlSurvivesRefusedStart(t *testing.T) {
	g, path := savedGraph(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- ServeControl(ln, DaemonOptions{}) }()
	sources := []uint32{0, 1, 2, 3}
	job := func(edit func(*JobSpec)) controlReply {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)
		var rep controlReply
		if err := enc.Encode(controlRequest{Op: "prepare"}); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&rep); err != nil || !rep.OK {
			t.Fatalf("prepare: %v, reply %+v", err, rep)
		}
		spec := JobSpec{GraphPath: path, Hosts: 1, Addrs: []string{rep.Transport}, Sources: sources}
		edit(&spec)
		if err := enc.Encode(controlRequest{Op: "start", Spec: &spec}); err != nil {
			t.Fatal(err)
		}
		rep = controlReply{}
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("no reply to start: %v", err)
		}
		return rep
	}
	for _, c := range malformedSpecs(t) {
		if rep := job(c.edit); rep.OK || !strings.Contains(rep.Err, c.want) {
			t.Errorf("reply %+v, want an error naming %q", rep, c.want)
		}
	}
	rep := job(func(*JobSpec) {})
	if !rep.OK || rep.Result == nil || rep.Result.Fault != nil {
		t.Fatalf("valid job after the refusals: %+v", rep)
	}
	want := brandes.Sequential(g, sources)
	for v, w := range want {
		if math.Abs(rep.Result.Scores[v]-w) > 1e-9*(1+math.Abs(w)) {
			t.Fatalf("score[%d] = %v, want %v", v, rep.Result.Scores[v], w)
		}
	}
	ln.Close()
	if err := <-served; err != nil {
		t.Fatalf("ServeControl: %v", err)
	}
}

// TestFaultRoundTrip: a JobResult's *dgalois.FaultError crosses the
// control connection's JSON whole, under the field names daemons send.
func TestFaultRoundTrip(t *testing.T) {
	want := dgalois.FaultError{Host: 3, Exchange: 17, Step: 40, Pending: 5, Reason: "host 3 stalled"}
	data, err := json.Marshal(JobResult{Host: 1, Fault: &want})
	if err != nil {
		t.Fatal(err)
	}
	const wire = `"fault":{"host":3,"exchange":17,"step":40,"pending":5,"reason":"host 3 stalled"}`
	if !strings.Contains(string(data), wire) {
		t.Fatalf("JobResult encodes as %s, want it to carry %s", data, wire)
	}
	var res JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Fault == nil || *res.Fault != want {
		t.Fatalf("round trip gave %+v, want %+v", res.Fault, want)
	}
	var clean JobResult
	if err := json.Unmarshal([]byte(`{"host":1}`), &clean); err != nil || clean.Fault != nil {
		t.Fatalf("a result without a fault decodes with fault %+v, %v", clean.Fault, err)
	}
}

// TestServeJobRejectsUnknownSpecField: a start spec carrying an option
// this build does not know (here the removed candidate_sync and
// engine_workers) must be answered with an error naming it, not run
// under different settings and not dropped as a bare EOF.
func TestServeJobRejectsUnknownSpecField(t *testing.T) {
	for _, field := range []string{`"candidate_sync":true`, `"engine_workers":4`} {
		name, _, _ := strings.Cut(strings.Trim(field, `"`), `"`)
		t.Run(name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			done := make(chan error, 1)
			go func() { done <- serveJob(server, DaemonOptions{}) }()
			enc, dec := json.NewEncoder(client), json.NewDecoder(client)
			var rep controlReply
			if err := enc.Encode(controlRequest{Op: "prepare"}); err != nil {
				t.Fatal(err)
			}
			if err := dec.Decode(&rep); err != nil || !rep.OK {
				t.Fatalf("prepare: %v, reply %+v", err, rep)
			}
			if _, err := client.Write([]byte(`{"op":"start","spec":{"hosts":1,` + field + `}}` + "\n")); err != nil {
				t.Fatal(err)
			}
			rep = controlReply{}
			if err := dec.Decode(&rep); err != nil {
				t.Fatalf("no reply to the undecodable start: %v", err)
			}
			if rep.OK || !strings.Contains(rep.Err, name) {
				t.Fatalf("reply %+v, want an error naming %s", rep, name)
			}
			if err := <-done; err == nil {
				t.Fatal("serveJob reported success")
			}
		})
	}
}
