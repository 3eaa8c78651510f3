package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteJSONL writes events as one JSON object per line, in the given
// order (use Canonical first for a byte-stable file).
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EventReader streams a JSONL trace one event at a time, so multi-GB
// detail traces from long runs are analyzable in constant memory (the
// bctrace summary/imbalance/rounds pipelines consume it directly).
//
// A trace whose last line is torn — cut off without its newline, the
// signature of a host killed mid-write — reads as the events before it:
// the parseable partial trace. A malformed line anywhere else is an
// error.
type EventReader struct {
	inputs []io.Reader // not yet opened, in order
	input  int         // 1-based index of the input being read
	sc     *bufio.Scanner
	torn   bool // the scanner's latest line ended the input without a newline
	line   int
	header Event
	hasHdr bool
}

// NewEventReader wraps JSONL streams produced by WriteJSONL, read one
// after another as a single sequence (a cluster run's per-host files;
// their headers are swallowed like the first).
func NewEventReader(inputs ...io.Reader) *EventReader {
	return &EventReader{inputs: inputs}
}

// scanLines is bufio.ScanLines, noting a final line without a newline.
func (er *EventReader) scanLines(data []byte, atEOF bool) (int, []byte, error) {
	advance, token, err := bufio.ScanLines(data, atEOF)
	er.torn = atEOF && token != nil && bytes.IndexByte(data, '\n') < 0
	return advance, token, err
}

// Next returns the next event in the stream. Blank lines are skipped,
// and a header record is validated (a schema newer than this build can
// read is an error), stored for Header, and swallowed — so consumers
// written before traces had headers see exactly the event stream they
// always did. At end of input it returns io.EOF; a malformed line
// returns an error naming the line number.
func (er *EventReader) Next() (Event, error) {
	for {
		if er.sc == nil {
			if len(er.inputs) == 0 {
				return Event{}, io.EOF
			}
			er.sc = bufio.NewScanner(er.inputs[0])
			er.sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
			er.sc.Split(er.scanLines)
			er.inputs = er.inputs[1:]
			er.input++
			er.line = 0
		}
		for er.sc.Scan() {
			er.line++
			b := er.sc.Bytes()
			if len(b) == 0 {
				continue
			}
			var e Event
			if err := json.Unmarshal(b, &e); err != nil {
				if er.torn {
					break
				}
				return Event{}, er.errorf("%w", err)
			}
			if e.Kind == KindHeader {
				if e.Schema > TraceSchema {
					return Event{}, er.errorf("schema %d newer than supported %d", e.Schema, TraceSchema)
				}
				er.header, er.hasHdr = e, true
				continue
			}
			return e, nil
		}
		if err := er.sc.Err(); err != nil {
			return Event{}, err
		}
		er.sc = nil
	}
}

// errorf prefixes an error with the position of the current line.
func (er *EventReader) errorf(format string, args ...any) error {
	where := fmt.Sprintf("obs: trace line %d: ", er.line)
	if er.input > 1 || len(er.inputs) > 0 { // one of several inputs: name it
		where = fmt.Sprintf("obs: trace %d line %d: ", er.input, er.line)
	}
	return fmt.Errorf(where+format, args...)
}

// Header returns the trace's header record, if one has been read so
// far (headers lead the file, so after the first Next it is settled).
func (er *EventReader) Header() (Event, bool) { return er.header, er.hasHdr }

// ReadEvents parses a whole JSONL stream into memory: a thin wrapper
// over EventReader for traces known to be small (fixtures, ring dumps).
func ReadEvents(r io.Reader) ([]Event, error) {
	er := NewEventReader(r)
	var events []Event
	for {
		e, err := er.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
}

// Canonical returns a copy of events in a deterministic total order
// with the wall-clock fields (StartNs, DurNs, HiddenNs) stripped, the
// Origin/Epoch stamps cleared (which host's file an event came from is
// deployment shape, not model content), and elastic, header, and link
// events dropped entirely (checkpoint/restore marks are recovery
// artifacts; headers are file metadata; links re-slice pack/unpack
// volume by peer, which would multiply the fixture by hosts² without
// adding model content — the conservation checker, not the golden
// diff, is their consumer). Remaining event content is a pure function
// of (graph, seed, options); only timings and concurrent emission
// order vary run to run, so the canonical form of the same
// configuration is byte-identical across worker counts.
func Canonical(events []Event) []Event {
	out := make([]Event, 0, len(events))
	for _, e := range events {
		switch e.Kind {
		case KindElastic, KindHeader, KindLink:
		default:
			out = append(out, e)
		}
	}
	for i := range out {
		out[i].StartNs = 0
		out[i].DurNs = 0
		out[i].HiddenNs = 0
		out[i].Origin = 0
		out[i].Epoch = 0
	}
	sort.Slice(out, func(i, j int) bool { return canonLess(out[i], out[j]) })
	return out
}

func canonLess(a, b Event) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Batch != b.Batch {
		return a.Batch < b.Batch
	}
	if a.Dir != b.Dir {
		return a.Dir < b.Dir
	}
	if a.Round != b.Round {
		return a.Round < b.Round
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Host != b.Host {
		return a.Host < b.Host
	}
	if a.V != b.V {
		return a.V < b.V
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Phase < b.Phase
}

// WriteCanonical writes Canonical(events) as JSONL: the byte-stable
// form golden-trace tests pin.
func WriteCanonical(w io.Writer, events []Event) error {
	return WriteJSONL(w, Canonical(events))
}

// ModelEvents filters events down to the paper-model stream: transport
// events (retries, framing, acks — artifacts of the fault layer),
// elastic events (recovery artifacts) and headers (file metadata) are
// dropped, everything else kept — link
// events stay, because per-peer paper-model volume is deterministic
// content. The model stream of a faulty run is identical to the
// fault-free run's, mirroring the Stats.Bytes/Messages invariant.
func ModelEvents(events []Event) []Event {
	out := make([]Event, 0, len(events))
	for _, e := range events {
		switch e.Kind {
		case KindTransport, KindElastic, KindHeader:
		default:
			out = append(out, e)
		}
	}
	return out
}
