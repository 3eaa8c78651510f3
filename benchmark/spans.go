package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mrbc/internal/obs"
)

// span is one call from the harness into a module. Spans are kept in
// memory and written out only after the benchmark ends.
type span struct {
	Name   string
	Start  time.Duration // since the log's epoch
	End    time.Duration
	Parent int // index of the enclosing span, -1 at the top
	Run    int // run number the call belongs to, 0 outside any run
}

// spanLog records spans from the harness's main goroutine; begin/end
// pairs nest, so the enclosing open span is the parent.
type spanLog struct {
	epoch time.Time
	spans []span
	open  []int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// in runs fn inside a span and returns its duration.
func (l *spanLog) in(name string, run int, fn func()) time.Duration {
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Parent: parent, Run: run, Start: time.Since(l.epoch)})
	l.open = append(l.open, id)
	fn()
	l.spans[id].End = time.Since(l.epoch)
	l.open = l.open[:len(l.open)-1]
	return l.spans[id].End - l.spans[id].Start
}

// last returns the index of the most recent span with the given name.
func (l *spanLog) last(name string) int {
	for i := len(l.spans) - 1; i >= 0; i-- {
		if l.spans[i].Name == name {
			return i
		}
	}
	return -1
}

// maxDumpedEvents caps the phase events written per workload, which
// keeps the dump loadable: web_sbbc_h4 emits over a million.
const maxDumpedEvents = 50000

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// dumpable copies out the first maxDumpedEvents phase events of a
// traced run and counts the ones left behind.
func dumpable(traces []*obs.Trace) (events []obs.Event, skipped int) {
	for _, t := range traces {
		for _, e := range t.Events() {
			switch {
			case e.Kind != obs.KindPhase:
			case len(events) < maxDumpedEvents:
				events = append(events, e)
			default:
				skipped++
			}
		}
	}
	return events, skipped
}

// writeChromeTrace writes the spans, and the program's phase events of
// one traced run as children of that run's span, as a Chrome
// trace-event array (chrome://tracing, Perfetto). Row 0 is the
// harness, row 1 the cluster-wide exchange slices, row 2+h host h.
//
// Phase events carry offsets from the cluster's own epoch, which the
// program does not expose. mrbcdist and sbbc create the cluster right
// after gluon.NewTopology, so the events are placed at the run span's
// start plus the topology time measured for this workload.
func writeChromeTrace(path string, l *spanLog, runSpan int, events []obs.Event, skipped int, epochShift time.Duration) error {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ces := []chromeEvent{
		{Name: "thread_name", Ph: "M", Tid: 0, Args: map[string]any{"name": "harness"}},
		{Name: "thread_name", Ph: "M", Tid: 1, Args: map[string]any{"name": "exchange"}},
	}
	for id, s := range l.spans {
		ces = append(ces, chromeEvent{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Args: map[string]any{"id": id, "parent": s.Parent, "run": s.Run}})
	}
	if runSpan >= 0 {
		base := l.spans[runSpan].Start + epochShift
		for _, e := range events {
			args := map[string]any{"parent": runSpan, "round": e.Round, "seq": e.Seq}
			if e.Bytes > 0 {
				args["bytes"] = e.Bytes
				args["messages"] = e.Messages
			}
			ces = append(ces, chromeEvent{Name: string(e.Phase), Ph: "X",
				Ts: us(base + time.Duration(e.StartNs)), Dur: us(time.Duration(e.DurNs)),
				Tid: int(e.Host) + 2, Args: args})
		}
		if skipped > 0 {
			ces = append(ces, chromeEvent{Name: fmt.Sprintf("%d later phase events not written", skipped),
				Ph: "i", Ts: us(l.spans[runSpan].End)})
		}
	}
	data, err := json.Marshal(ces)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
