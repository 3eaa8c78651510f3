// Command bcd is the per-host daemon of a multi-process BC cluster.
// One bcd process runs one host: a coordinator (cmd/bcctl or the
// clustertest harness) connects to its control address, prepares a
// job, and the daemon executes its share of the SPMD computation over
// the real TCP gluon transport.
//
// Usage:
//
//	bcd -listen 127.0.0.1:0              # ephemeral control port
//	bcd -listen 127.0.0.1:7001 -metrics 127.0.0.1:9464
//
// On startup the daemon prints
//
//	BCD READY control=<addr>
//
// on stdout — the line coordinators parse to learn the control
// address when the daemon binds an ephemeral port. With -metrics the
// daemon also serves live telemetry (/metrics, /statz, /progressz) for
// the duration of the process; jobs publish their engine gauges there.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"mrbc/internal/clusterrun"
	"mrbc/internal/obs"
	"mrbc/internal/obs/serve"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:0", "control listen address")
		metrics = flag.String("metrics", "", "serve live telemetry on this address (empty: off)")
		quiet   = flag.Bool("quiet", false, "suppress per-job log lines on stderr")
	)
	flag.Parse()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcd:", err)
		os.Exit(1)
	}

	var opts clusterrun.DaemonOptions
	if !*quiet {
		logger := log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds)
		opts.Logf = logger.Printf
	}
	if *metrics != "" {
		reg := obs.NewRegistry()
		opts.Metrics = reg
		srv := serve.New(reg)
		addr, err := srv.Start(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcd:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("BCD METRICS http://%s/metrics\n", addr)
	}

	// On SIGTERM/SIGINT, force every in-flight job's trace sink to disk
	// before dying: a decommissioned host's partial trace is the
	// post-mortem artifact the cluster merge reads, so it must survive
	// the process. (SIGKILL skips this — the streaming sink's
	// one-line-per-write discipline keeps even that trace parseable.)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sigs
		if err := clusterrun.FlushActiveTraces(); err != nil {
			fmt.Fprintln(os.Stderr, "bcd: flush traces:", err)
		}
		fmt.Fprintln(os.Stderr, "bcd: exiting on", s)
		os.Exit(1)
	}()

	// The ready line is the contract with coordinators: stdout, exact
	// prefix, control address after the '='.
	fmt.Printf("BCD READY control=%s\n", ln.Addr())

	if err := clusterrun.ServeControl(ln, opts); err != nil {
		fmt.Fprintln(os.Stderr, "bcd:", err)
		os.Exit(1)
	}
}
