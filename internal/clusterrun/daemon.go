package clusterrun

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mrbc/internal/gluon"
	"mrbc/internal/obs"
)

// Daemon-side control protocol. A bcd daemon listens on one control
// address and serves jobs over it, one control connection per job, in
// two phases:
//
//  1. {"op":"prepare"} → {"ok":true,"transport":"127.0.0.1:NNN"}
//     The daemon binds a fresh transport listener for the job and
//     reports its address. Fresh-per-job listeners let a persistent
//     daemon run many jobs (the chaos sweep reuses spawned processes)
//     and let the coordinator interpose fault proxies before any peer
//     dials.
//  2. {"op":"start","spec":{...}} → {"ok":true,"result":{...}}
//     The spec carries the full address book (every host's transport
//     or proxy address). The daemon builds the TCP transport, runs the
//     engine SPMD, and replies with its JobResult — including a
//     structured fault instead of an error when the cluster failed
//     under it, so the coordinator can tell "host 2 severed" from
//     "daemon crashed".
//
// A malformed request or an internal failure produces {"ok":false,
// "err":...} and closes the connection; the daemon itself keeps
// serving.

// controlRequest is one coordinator→daemon message.
type controlRequest struct {
	Op   string   `json:"op"`
	Spec *JobSpec `json:"spec,omitempty"`
}

// controlReply is one daemon→coordinator message.
type controlReply struct {
	OK        bool       `json:"ok"`
	Err       string     `json:"err,omitempty"`
	Transport string     `json:"transport,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
}

// DaemonOptions configures ServeControl.
type DaemonOptions struct {
	// Metrics, when non-nil, receives every job's live engine gauges —
	// the registry behind the daemon's /metrics endpoint.
	Metrics *obs.Registry
	// Logf receives daemon lifecycle messages; nil discards them.
	Logf func(format string, args ...any)
}

func (o DaemonOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// ServeControl runs the daemon loop on the given control listener:
// accept a connection, serve one job through the prepare/start
// protocol, repeat. Returns when the listener closes.
func ServeControl(ln net.Listener, opts DaemonOptions) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if err := serveJob(conn, opts); err != nil {
			opts.logf("bcd: job failed: %v", err)
		}
	}
}

// serveJob drives one control connection through prepare and start.
func serveJob(conn net.Conn, opts DaemonOptions) error {
	defer conn.Close()
	dec := json.NewDecoder(conn)
	// SPMD processes must agree on every option that shapes the exchange
	// sequence, so a spec field this build does not know is an error, not
	// something to run without.
	dec.DisallowUnknownFields()
	enc := json.NewEncoder(conn)

	var req controlRequest
	if err := dec.Decode(&req); err != nil {
		err = fmt.Errorf("decode request: %w", err)
		enc.Encode(controlReply{Err: err.Error()})
		return err
	}
	if req.Op != "prepare" {
		enc.Encode(controlReply{Err: fmt.Sprintf("expected prepare, got %q", req.Op)})
		return fmt.Errorf("protocol: expected prepare, got %q", req.Op)
	}
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		enc.Encode(controlReply{Err: err.Error()})
		return err
	}
	defer tln.Close()
	if err := enc.Encode(controlReply{OK: true, Transport: tln.Addr().String()}); err != nil {
		return err
	}

	req = controlRequest{}
	if err := dec.Decode(&req); err != nil {
		err = fmt.Errorf("decode start: %w", err)
		enc.Encode(controlReply{Err: err.Error()})
		return err
	}
	if req.Op != "start" || req.Spec == nil {
		enc.Encode(controlReply{Err: "expected start with a spec"})
		return fmt.Errorf("protocol: expected start with a spec, got %q", req.Op)
	}
	spec := req.Spec
	opts.logf("bcd: host %d/%d starting %s on %s", spec.Host, spec.Hosts, spec.Engine, spec.GraphPath)

	transport, err := gluon.NewTCPTransport(spec.Host, spec.Addrs, tln, spec.TCPOptions())
	if err != nil {
		enc.Encode(controlReply{Err: err.Error()})
		return err
	}
	defer transport.Close()

	var trace *obs.Trace
	finishTrace := func() {}
	if spec.TracePath != "" {
		sink, serr := obs.NewStreamSink(spec.TracePath, obs.Header(spec.Host, spec.Hosts, spec.Epoch))
		if serr != nil {
			enc.Encode(controlReply{Err: serr.Error()})
			return serr
		}
		// The file is the record: every event is teed to the sink, so the
		// ring keeps only the last one. Stamping every event with this
		// process's host index and membership epoch lets the files of
		// different hosts and attempts merge without guessing provenance.
		trace = obs.NewTrace(1, obs.LevelPhase)
		trace.SetStamp(spec.Host, spec.Epoch)
		trace.SetTee(sink.Chan())
		registerSink(sink)
		// Closing the sink drains and fsyncs the file. It runs before the
		// reply, job error included, because the coordinator merges the
		// files as soon as every host has replied; deferred, it also runs
		// if the job panics. SIGTERM is handled separately: the daemon's
		// signal handler calls FlushActiveTraces, which reaches this sink
		// through the registry.
		var once sync.Once
		finishTrace = func() {
			once.Do(func() {
				unregisterSink(sink)
				trace.SetTee(nil)
				if cerr := sink.Close(); cerr != nil {
					opts.logf("bcd: trace sink: %v", cerr)
				}
			})
		}
		defer finishTrace()
	}
	res, err := RunJob(spec, transport, trace, opts.Metrics)
	finishTrace()
	if err != nil {
		enc.Encode(controlReply{Err: err.Error()})
		return err
	}
	if res.Fault != nil {
		opts.logf("bcd: host %d aborted: %s", spec.Host, res.Fault.Reason)
	}
	return enc.Encode(controlReply{OK: true, Result: res})
}

func millis(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
