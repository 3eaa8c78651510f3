package main

import "math"

// class says how a metric is judged.
type class int

const (
	// layer: a per-module number with no bound.
	layer class = iota
	// bounded: an end-to-end metric with a relative regression bound;
	// reported as the median of the tracing-off runs.
	bounded
	// gate: an end-to-end count or verdict that is not a matter of
	// degree: rounds, bytes and messages must repeat exactly, the error
	// stays under errTolerance, no run fails.
	gate
)

// errTolerance is the largest |score − Brandes| a run may show.
const errTolerance = 1e-9

// def is one entry of the metric dictionary. README.md carries the
// same table with each metric's source call; BENCHMARK.json lists the
// bounded metrics under end_to_end and the rest under per_layer
// (bench_test.go keeps the three in step).
type def struct {
	name   string
	unit   string
	class  class
	bound  float64 // bounded only: share of the base median it may worsen by
	higher bool    // higher is better
}

var dictionary = []def{
	{name: "ns_per_source_edge", unit: "ns", class: bounded, bound: 0.25},
	{name: "wall_s", unit: "s", class: bounded, bound: 0.25},
	{name: "setup_s", unit: "s", class: bounded, bound: 0.25},
	{name: "alloc_mb", unit: "MB", class: bounded, bound: 0.15},
	{name: "peak_rss_mb", unit: "MB", class: bounded, bound: 0.25},

	{name: "rounds", unit: "count", class: gate},
	{name: "comm_bytes", unit: "bytes", class: gate},
	{name: "comm_messages", unit: "count", class: gate},
	{name: "max_abs_err", unit: "score", class: gate},
	{name: "failed_share", unit: "ratio", class: gate},

	{name: "gen.build_s", unit: "s"},
	{name: "graph.vertices", unit: "count"},
	{name: "graph.edges", unit: "count"},

	{name: "partition.cut_s", unit: "s"},
	{name: "partition.replication", unit: "ratio"},
	{name: "partition.edge_imbalance", unit: "ratio"},

	{name: "gluon.topology_s", unit: "s"},
	{name: "gluon.transport_up_s", unit: "s"},
	{name: "gluon.enc_dense_msgs", unit: "count"},
	{name: "gluon.enc_sparse_msgs", unit: "count"},
	{name: "gluon.enc_all_msgs", unit: "count"},
	{name: "gluon.bytes_per_message", unit: "bytes"},
	{name: "gluon.encode_ns_per_update_sparse", unit: "ns"},
	{name: "gluon.encode_ns_per_update_dense", unit: "ns"},
	{name: "gluon.encode_ns_per_update_all", unit: "ns"},
	{name: "gluon.decode_ns_per_update_sparse", unit: "ns"},
	{name: "gluon.decode_ns_per_update_dense", unit: "ns"},
	{name: "gluon.decode_ns_per_update_all", unit: "ns"},
	{name: "gluon.frame_ns_per_kb", unit: "ns"},
	{name: "gluon.mem_exchange_us", unit: "us"},
	{name: "gluon.mem_allreduce_us", unit: "us"},
	{name: "gluon.tcp_exchange_us", unit: "us"},
	{name: "gluon.tcp_allreduce_us", unit: "us"},
	{name: "gluon.tcp_retries", unit: "count"},
	{name: "gluon.tcp_retry_bytes", unit: "bytes"},
	{name: "gluon.tcp_control_records", unit: "count"},
	{name: "gluon.tcp_redials", unit: "count"},
	{name: "gluon.tcp_send_s", unit: "s"},
	{name: "gluon.tcp_allreduce_wait_s", unit: "s"},
	{name: "gluon.tcp_over_mem_ratio", unit: "ratio"},

	{name: "dgalois.compute_s", unit: "s"},
	{name: "dgalois.pack_s", unit: "s"},
	{name: "dgalois.exchange_wait_s", unit: "s"},
	{name: "dgalois.unpack_s", unit: "s"},
	{name: "dgalois.barrier_s", unit: "s"},
	{name: "dgalois.hidden_s", unit: "s"},
	{name: "dgalois.load_imbalance", unit: "ratio"},
	{name: "dgalois.exchanges", unit: "count"},
	{name: "dgalois.compute_phases", unit: "count"},
	{name: "dgalois.stats_compute_s", unit: "s"},
	{name: "dgalois.stats_comm_s", unit: "s"},
	{name: "dgalois.empty_exchange_us", unit: "us"},
	{name: "dgalois.empty_compute_us", unit: "us"},

	{name: "core.shared_wall_s", unit: "s"},
	{name: "core.apsp_wall_s", unit: "s"},
	{name: "core.fwd_rounds", unit: "count"},
	{name: "core.back_rounds", unit: "count"},

	{name: "mrbcdist.unattributed_s", unit: "s"},
	{name: "mrbcdist.unattributed_share", unit: "ratio"},
	{name: "mrbcdist.batches", unit: "count"},
	{name: "mrbcdist.rounds_per_batch", unit: "count"},
	{name: "mrbcdist.bytes_per_round", unit: "bytes"},
	{name: "mrbcdist.compute_over_shared", unit: "ratio"},

	{name: "sbbc.unattributed_s", unit: "s"},
	{name: "sbbc.unattributed_share", unit: "ratio"},
	{name: "sbbc.wall_s", unit: "s"},
	{name: "brandes.seq_wall_s", unit: "s"},
	{name: "ref.mrbc_over_brandes", unit: "ratio"},
	{name: "ref.mrbc_over_sbbc", unit: "ratio"},

	{name: "obs.trace_overhead_ratio", unit: "ratio"},
	{name: "obs.events", unit: "count"},
	{name: "obs.dropped", unit: "count"},
	{name: "trace.coverage", unit: "ratio", higher: true},

	{name: "cpu_s", unit: "s"},
	{name: "runtime.gc_cycles", unit: "count"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "runtime.mallocs", unit: "count"},
}

func lookup(name string) (def, bool) {
	for _, d := range dictionary {
		if d.name == name {
			return d, true
		}
	}
	return def{}, false
}

// metric is one reported number. NA marks a metric whose module does
// not execute on the workload: it is printed as n/a, and as -1 on the
// machine-read result line, where every value must be a number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	NA    bool    `json:"na,omitempty"`
	// Median's company, for metrics sampled more than once.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
	N  int     `json:"n,omitempty"`
	// Tail is the highest percentile with at least ten samples beyond
	// it (probes only).
	Tail      float64 `json:"tail,omitempty"`
	TailLabel string  `json:"tail_label,omitempty"`
	// Base spells out a ratio's numerator and denominator.
	Base string `json:"base,omitempty"`
}

// metricSet collects a run's metrics by name; emit order is the
// dictionary's.
type metricSet map[string]metric

func (s metricSet) put(name string, v float64) {
	d, ok := lookup(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the dictionary")
	}
	if _, dup := s[name]; dup {
		panic("benchmark: metric " + name + " reported twice")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s[name] = metric{Name: name, Unit: d.unit, NA: true}
		return
	}
	s[name] = metric{Name: name, Unit: d.unit, Value: v}
}

// sampled reports the median of values with its quartiles and count.
func (s metricSet) sampled(name string, values []float64) {
	q1, m, q3 := quartiles(values)
	s.put(name, m)
	e := s[name]
	e.Q1, e.Q3, e.N = q1, q3, len(values)
	s[name] = e
}

func (s metricSet) ratio(name string, num, den float64, base string) {
	if den == 0 {
		s.put(name, math.NaN())
		return
	}
	s.put(name, num/den)
	e := s[name]
	e.Base = base
	s[name] = e
}

// ordered returns the metrics of the given classes in dictionary
// order, filling in n/a for any the run did not report.
func (s metricSet) ordered(keep func(def) bool) []metric {
	var out []metric
	for _, d := range dictionary {
		if !keep(d) {
			continue
		}
		m, ok := s[d.name]
		if !ok {
			m = metric{Name: d.name, Unit: d.unit, NA: true}
		}
		out = append(out, m)
	}
	return out
}
