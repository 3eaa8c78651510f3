// Package clusterrun is the multi-process cluster fabric: the job
// description a coordinator hands each bcd host daemon, the daemon's
// control-connection protocol, the coordinator that spawns and drives
// an N-process localhost cluster, and a deterministic socket-level
// fault proxy for chaos testing the TCP transport.
//
// The division of labor with the engine packages: mrbcdist and sbbc
// already run SPMD when handed a remote gluon.Transport — every
// process executes the same batch loop for its one host. This package
// supplies everything around that: process lifecycle, the address
// book, partition-plan distribution (each process recomputes the same
// deterministic partitioning from the same canonical graph file), and
// result aggregation (per-process score vectors are disjoint by
// master ownership, so the coordinator sums them elementwise).
package clusterrun

import (
	"errors"
	"fmt"

	"mrbc/internal/dgalois"
	"mrbc/internal/elastic"
	"mrbc/internal/gluon"
	"mrbc/internal/graph"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
	"mrbc/internal/sbbc"
)

// JobSpec describes one BC job for one host daemon. The coordinator
// fills Host and Addrs per daemon; everything else is identical across
// the cluster (and must be — each process recomputes the partition
// plan from GraphPath + Partition and the plans have to agree).
type JobSpec struct {
	// Engine selects the algorithm: "mrbcdist" (default) or "sbbc".
	Engine string `json:"engine"`
	// GraphPath is the canonical binary graph file every host loads.
	GraphPath string `json:"graph_path"`
	// Partition names the deterministic partitioning every process
	// recomputes identically: "edgecut" (default) or "cartesian".
	Partition string `json:"partition"`
	// Hosts is the cluster size; Host is this daemon's host index.
	Hosts int `json:"hosts"`
	Host  int `json:"host"`
	// Addrs is the transport address book, indexed by host. Entries may
	// point at fault proxies rather than the hosts' real listeners.
	Addrs []string `json:"addrs"`
	// Sources are the BC sources, in order.
	Sources []uint32 `json:"sources"`
	// BatchSize is mrbcdist's k (0: its default).
	BatchSize int `json:"batch_size,omitempty"`
	// PipelineDepth is mrbcdist's software-pipelining window: how many
	// source batches may be in flight at once (0/1: serial batches).
	PipelineDepth int `json:"pipeline_depth,omitempty"`
	// TracePath, when non-empty, makes the daemon record a phase-level
	// obs trace for the job and stream it as JSONL to this path while
	// the job runs (one fsynced header up front, one complete line per
	// event — a killed daemon leaves a parseable partial trace).
	TracePath string `json:"trace_path,omitempty"`
	// ShipTrace makes the daemon return the job's trace events in its
	// JobResult over the control connection, so the coordinator can
	// merge every host's trace without touching the daemons' disks.
	// Independent of TracePath; both may be set.
	ShipTrace bool `json:"ship_trace,omitempty"`
	// DeadlineSteps / StepMillis override the TCP transport's stall
	// deadline (0: gluon defaults). Chaos tests shorten them so a
	// severed host fails fast instead of after the full 3 s budget.
	DeadlineSteps int `json:"deadline_steps,omitempty"`
	// StepMillis is the reliability step length in milliseconds.
	StepMillis int `json:"step_millis,omitempty"`
	// CheckpointDir, when non-empty, makes the daemon persist a boundary
	// snapshot under <dir>/host<h>/ after every source batch (mrbcdist
	// only, serial batches). The directory is shared across the cluster's
	// daemons, so the coordinator can compute the latest common boundary
	// and a replacement daemon can adopt a dead host's snapshots.
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	// ResumeBatch > 0 resumes the run from that batch boundary's
	// snapshot in CheckpointDir instead of starting at batch 0.
	ResumeBatch int `json:"resume_batch,omitempty"`
	// Epoch is the cluster membership epoch: stamped into transport
	// hellos (stale connections from other epochs are rejected) and into
	// checkpoints. The coordinator bumps it on every recovery attempt.
	Epoch int `json:"epoch,omitempty"`
}

// TCPOptions derives the transport tuning from the spec.
func (s *JobSpec) TCPOptions() gluon.TCPOptions {
	opts := gluon.TCPOptions{DeadlineSteps: s.DeadlineSteps, Epoch: s.Epoch}
	if s.StepMillis > 0 {
		opts.StepInterval = millis(s.StepMillis)
	}
	return opts
}

// JobResult is one host's outcome: its share of the scores (zero
// outside its masters), its paper-model stats, and a structured fault
// if the run aborted.
type JobResult struct {
	Host     int       `json:"host"`
	Scores   []float64 `json:"scores,omitempty"`
	Rounds   int       `json:"rounds"`
	Bytes    int64     `json:"bytes"`
	Messages int64     `json:"messages"`
	// CommNs/HiddenNs split the host's exchange wall time into waits on
	// the critical path and waits hidden behind pipelined compute.
	CommNs   int64 `json:"comm_ns,omitempty"`
	HiddenNs int64 `json:"hidden_ns,omitempty"`
	// Retries/RetryBytes/Redials are the host's transport recovery work
	// (its outgoing channels only).
	Retries    int64 `json:"retries,omitempty"`
	RetryBytes int64 `json:"retry_bytes,omitempty"`
	Redials    int64 `json:"redials,omitempty"`
	// Fault carries the structured failure, nil on success.
	Fault *Fault `json:"fault,omitempty"`
	// Trace carries the host's obs events when the spec set ShipTrace —
	// stamped with the host's origin and epoch, ready for merge.
	Trace []obs.Event `json:"trace,omitempty"`
	// TraceDropped counts the events the host's trace ring overwrote,
	// which the merged-trace checks need.
	TraceDropped int64 `json:"trace_dropped,omitempty"`
}

// Fault is the JSON projection of *dgalois.FaultError, relayed from a
// daemon to the coordinator.
type Fault struct {
	Host     int    `json:"host"`
	Exchange int    `json:"exchange"`
	Step     int    `json:"step"`
	Pending  int    `json:"pending"`
	Killed   bool   `json:"killed,omitempty"`
	Reason   string `json:"reason"`
}

// AsError reconstructs the engine-level error, nil for a nil fault.
func (f *Fault) AsError() error {
	if f == nil {
		return nil
	}
	return &dgalois.FaultError{Host: f.Host, Exchange: f.Exchange, Step: f.Step, Pending: f.Pending, Killed: f.Killed, Reason: f.Reason}
}

// check refuses a spec that the partitioner, the cluster or an engine
// would panic on. A spec arrives from outside the process, so a bad one
// must fail its job, not kill the daemon serving it.
func (s *JobSpec) check(g *graph.Graph) error {
	n := g.NumVertices()
	switch {
	case n == 0:
		return errors.New("clusterrun: empty graph")
	case s.Hosts < 1:
		return fmt.Errorf("clusterrun: invalid host count %d", s.Hosts)
	case len(s.Addrs) > 0 && len(s.Addrs) != s.Hosts:
		return fmt.Errorf("clusterrun: %d addrs for %d hosts", len(s.Addrs), s.Hosts)
	}
	for _, src := range s.Sources {
		if int(src) >= n {
			return fmt.Errorf("clusterrun: source %d out of range [0,%d)", src, n)
		}
	}
	return nil
}

// BuildPartitioning recomputes the job's deterministic partition plan.
// Every process runs this on the same graph bytes, so the plans agree
// without shipping them over the wire.
func BuildPartitioning(g *graph.Graph, name string, hosts int) (*partition.Partitioning, error) {
	switch name {
	case "", "edgecut":
		return partition.EdgeCut(g, hosts), nil
	case "cartesian":
		return partition.CartesianCut(g, hosts), nil
	}
	return nil, fmt.Errorf("clusterrun: unknown partition %q", name)
}

// RunJob executes the spec's engine over the given transport and
// returns this host's result. The transport decides the execution
// shape: a remote backend runs the spec's one host (SPMD); the
// in-process MemTransport (or nil) runs the whole simulated cluster —
// the coordinator uses that for its reference run. A non-nil metrics
// registry receives the engine's live gauges (the daemon exposes it
// on /metrics).
func RunJob(spec *JobSpec, transport gluon.Transport, trace *obs.Trace, metrics *obs.Registry) (*JobResult, error) {
	g, err := graph.Load(spec.GraphPath)
	if err != nil {
		return nil, fmt.Errorf("clusterrun: load graph: %w", err)
	}
	if err := spec.check(g); err != nil {
		return nil, err
	}
	pt, err := BuildPartitioning(g, spec.Partition, spec.Hosts)
	if err != nil {
		return nil, err
	}
	var (
		scores []float64
		stats  dgalois.Stats
		runErr error
	)
	switch spec.Engine {
	case "", "mrbcdist":
		opts := mrbcdist.Options{
			BatchSize:     spec.BatchSize,
			Trace:         trace,
			Metrics:       metrics,
			Transport:     transport,
			PipelineDepth: spec.PipelineDepth,
			Epoch:         spec.Epoch,
		}
		if spec.CheckpointDir != "" {
			if spec.PipelineDepth > 1 {
				return nil, fmt.Errorf("clusterrun: checkpointing requires serial batches (pipeline_depth %d)", spec.PipelineDepth)
			}
			sink, err := elastic.NewFileSink(spec.CheckpointDir, spec.Host)
			if err != nil {
				return nil, err
			}
			opts.Checkpoint = sink
			if spec.ResumeBatch > 0 {
				data, err := sink.Get(spec.ResumeBatch)
				if err != nil {
					return nil, fmt.Errorf("clusterrun: resume: %w", err)
				}
				snap, err := elastic.Decode(data)
				if err != nil {
					return nil, fmt.Errorf("clusterrun: resume: %w", err)
				}
				opts.Resume = snap
			}
		} else if spec.ResumeBatch > 0 {
			return nil, fmt.Errorf("clusterrun: resume_batch %d without checkpoint_dir", spec.ResumeBatch)
		}
		scores, stats, runErr = mrbcdist.RunChecked(g, pt, spec.Sources, opts)
	case "sbbc":
		if spec.CheckpointDir != "" || spec.ResumeBatch > 0 {
			return nil, fmt.Errorf("clusterrun: engine %q does not support checkpoint/resume", spec.Engine)
		}
		scores, stats, runErr = sbbc.RunOptsChecked(g, pt, spec.Sources, sbbc.Options{
			Trace:     trace,
			Metrics:   metrics,
			Transport: transport,
		})
	default:
		return nil, fmt.Errorf("clusterrun: unknown engine %q", spec.Engine)
	}
	res := &JobResult{
		Host:         spec.Host,
		Rounds:       stats.Rounds,
		Bytes:        stats.Bytes,
		Messages:     stats.Messages,
		CommNs:       stats.CommTime.Nanoseconds(),
		HiddenNs:     stats.HiddenTime.Nanoseconds(),
		TraceDropped: trace.Dropped(),
	}
	if transport != nil {
		var agg gluon.ChannelStats
		for to := 0; to < spec.Hosts; to++ {
			agg.Add(transport.Stats(spec.Host, to))
		}
		res.Retries = agg.Retries
		res.RetryBytes = agg.RetryBytes
		res.Redials = agg.Redials
	}
	if runErr != nil {
		var fe *dgalois.FaultError
		if !asFault(runErr, &fe) {
			return nil, runErr
		}
		res.Fault = &Fault{Host: fe.Host, Exchange: fe.Exchange, Step: fe.Step, Pending: fe.Pending, Killed: fe.Killed, Reason: fe.Reason}
		return res, nil
	}
	res.Scores = scores
	return res, nil
}
