package clusterrun

import (
	"sync"

	"mrbc/internal/obs"
)

// Process-wide registry of the live per-job trace sinks. ServeControl
// serves one control connection, and so one job, at a time; bcd's
// SIGTERM handler must be able to force that job's trace to disk
// without reaching into the loop — the registry is that rendezvous. A
// process running several ServeControl loops has one live sink each.

var (
	sinkMu sync.Mutex
	sinks  = make(map[*obs.StreamSink]struct{})
)

func registerSink(s *obs.StreamSink) {
	sinkMu.Lock()
	sinks[s] = struct{}{}
	sinkMu.Unlock()
}

func unregisterSink(s *obs.StreamSink) {
	sinkMu.Lock()
	delete(sinks, s)
	sinkMu.Unlock()
}

// FlushActiveTraces drains and fsyncs every live per-job trace sink.
// bcd calls it from its SIGTERM/SIGINT handler so a terminated host
// leaves durable partial traces for the post-mortem merge; it is safe
// to call concurrently with running jobs (events emitted after the
// flush simply land in the next one, or in the sink's close).
func FlushActiveTraces() error {
	sinkMu.Lock()
	live := make([]*obs.StreamSink, 0, len(sinks))
	for s := range sinks {
		live = append(live, s)
	}
	sinkMu.Unlock()
	var first error
	for _, s := range live {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
