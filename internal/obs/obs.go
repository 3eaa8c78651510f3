// Package obs is the observability layer for the MRBC stack: a
// ring-buffered structured tracer plus a metrics registry, built so the
// disabled path costs nothing (a nil *Trace short-circuits before any
// work, preserving dgalois's zero-allocation Exchange pin) and the
// enabled path allocates nothing per event (fixed-capacity ring of
// value-typed events, atomic cursor).
//
// Traces record one event per (round, host, phase) — compute, pack,
// exchange, unpack, barrier — with byte/message/format/retry counters
// and monotonic timings, and, at LevelDetail, one event per
// (vertex, source) synchronization in each direction. Those send events
// turn the paper's bounds into executable assertions:
//
//   - Lemma 8: every batch of k sources completes within k+H forward
//     rounds and the same again backward (CheckRoundBounds);
//   - Algorithm 5's reversal: a pair synchronized forward in round τ
//     synchronizes backward in round R−τ+1 (CheckReversal).
//
// Event content is a pure function of (graph, seed, options): timings
// and emission order are the only nondeterministic parts, so Canonical
// (sort + strip timings) yields byte-identical traces across worker
// counts, and ModelEvents (drop transport events) yields the identical
// paper-model stream with and without injected faults.
package obs

import (
	"sync/atomic"
)

// Kind classifies an event.
type Kind string

const (
	// KindPhase is one host's slice of a BSP phase (compute, pack,
	// exchange, unpack, barrier), emitted by the cluster substrate.
	KindPhase Kind = "phase"
	// KindSend is one (vertex, source) label synchronization, emitted by
	// the engines at the owning master, only at LevelDetail.
	KindSend Kind = "send"
	// KindBatch summarizes one source batch: k, forward rounds R,
	// backward rounds.
	KindBatch Kind = "batch"
	// KindTransport reports a remote transport's work for one exchange
	// (bytes, retries, redials). Not part of the paper-model stream.
	KindTransport Kind = "transport"
	// KindRound is a CONGEST simulator round (internal/congest).
	KindRound Kind = "round"
	// KindElastic marks checkpoint/restore transitions of the elastic
	// runtime (Phase is PhaseCheckpoint or PhaseRestore, Batch the
	// boundary). Recovery artifacts, not algorithm events: Canonical and
	// ModelEvents drop them, which is what lets a resumed run's
	// canonical trace match the uninterrupted run's byte for byte.
	KindElastic Kind = "elastic"
	// KindHeader is the file-metadata record a trace sink writes as the
	// first JSONL line: Schema carries the trace schema version, Host the
	// writing host (−1 for a merged cluster trace), Hosts the cluster
	// size, Epoch the membership epoch. EventReader recognizes and
	// swallows it (exposed via Header), so headerless pre-schema traces
	// and every existing consumer keep working; Canonical drops it.
	KindHeader Kind = "header"
	// KindLink is one directed (sender, receiver) edge of one exchange:
	// Host is the host the event accounts for, Peer the other endpoint,
	// Phase selects the side (PhasePack = volume Host sent to Peer,
	// PhaseUnpack = volume Host received from Peer), and Seq is the pack
	// seq of the exchange on BOTH sides so a sent link and its received
	// twin share the key (epoch, seq, from, to). Link volume is
	// paper-model volume (post-dedup, exactly-once delivery), so the
	// cross-host conservation checker can demand sent == received
	// exactly; retransmit volume stays on transport events. Canonical
	// drops links to keep the golden fixture stable; ModelEvents keeps
	// them (they are deterministic model content).
	KindLink Kind = "link"
)

// TraceSchema is the JSONL trace schema version this build writes and
// the newest it can read. Version 1 introduced the header record, the
// Origin/Epoch stamps, and link events; headerless traces are
// version 0 and parse as before.
const TraceSchema = 1

// Phase identifies the BSP phase slice of a KindPhase event.
type Phase string

const (
	PhaseCompute  Phase = "compute"
	PhasePack     Phase = "pack"
	PhaseExchange Phase = "exchange"
	PhaseUnpack   Phase = "unpack"
	// PhaseBarrier is the time a host idles at the compute barrier, from
	// the end of its own compute slice to the end of the phase.
	PhaseBarrier Phase = "barrier"
	// PhaseCheckpoint/PhaseRestore tag KindElastic events: a boundary
	// snapshot was persisted / a run resumed from one.
	PhaseCheckpoint Phase = "checkpoint"
	PhaseRestore    Phase = "restore"
)

// Direction tags send events.
type Direction string

const (
	DirForward  Direction = "fwd"
	DirBackward Direction = "back"
)

// Event is one trace record. The struct is value-typed and
// fixed-size, so the ring buffer holds events inline and Emit never
// allocates. Zero fields are omitted from JSON; a zero value
// round-trips, so omission loses nothing.
type Event struct {
	Kind Kind `json:"kind"`
	// Seq orders cluster-emitted events (phase, transport): the
	// coordinator assigns it serially per phase dispatch, so it is
	// deterministic across worker counts. Engine-emitted events carry 0.
	Seq int64 `json:"seq,omitempty"`
	// Round: the cluster BSP round for phase/transport events; the
	// batch-relative round for send events; the simulator round for
	// round events.
	Round int32 `json:"round,omitempty"`
	// Batch is the source-batch index for send/batch events.
	Batch int32 `json:"batch,omitempty"`
	// Host: the host of a phase event or the master host of a send
	// event; −1 for cluster-wide events.
	Host  int32     `json:"host,omitempty"`
	Phase Phase     `json:"phase,omitempty"`
	Dir   Direction `json:"dir,omitempty"`
	// V and Src identify the (global vertex, batch-local source) pair of
	// a send event.
	V   int32 `json:"v,omitempty"`
	Src int32 `json:"src,omitempty"`
	// Peer is the other endpoint of a link event: the receiver of a
	// pack-side link, the sender of an unpack-side link.
	Peer int32 `json:"peer,omitempty"`

	// Origin identifies which host's tracer emitted the event, stamped
	// as 1+host so 0 means "unstamped" (in-process runs never stamp and
	// stay byte-identical to pre-schema traces). OriginHost decodes it.
	// Epoch is the membership epoch the event was recorded under;
	// meaningful only when Origin != 0 (SetStamp always sets both) or on
	// header events. Canonical strips both.
	Origin int32 `json:"origin,omitempty"`
	Epoch  int32 `json:"epoch,omitempty"`
	// Schema and Hosts appear only on header events: the trace schema
	// version and the cluster size the trace was recorded under.
	Schema int32 `json:"schema,omitempty"`
	Hosts  int32 `json:"hosts,omitempty"`

	// Batch-event summary: batch size k, forward rounds R (the last
	// forward round with activity), backward rounds.
	K          int32 `json:"k,omitempty"`
	FwdRounds  int32 `json:"fwd_rounds,omitempty"`
	BackRounds int32 `json:"back_rounds,omitempty"`

	// Volume counters (pack/unpack phase events, round events).
	Bytes    int64 `json:"bytes,omitempty"`
	Messages int64 `json:"messages,omitempty"`
	// Per-format message tallies of a pack event.
	Dense  int64 `json:"dense,omitempty"`
	Sparse int64 `json:"sparse,omitempty"`
	All    int64 `json:"all,omitempty"`

	// Transport recovery counters (transport events): deltas for one
	// exchange.
	Retries    int64 `json:"retries,omitempty"`
	RetryBytes int64 `json:"retry_bytes,omitempty"`
	// Backend labels a transport event with the gluon backend that moved
	// the bytes ("tcp"). The in-process backend emits no transport
	// events.
	Backend string `json:"backend,omitempty"`
	// Redials counts connection re-establishments (remote backends).
	Redials int64 `json:"redials,omitempty"`

	// Monotonic timings, nanoseconds since the trace/cluster epoch.
	// Stripped by Canonical: wall time is the one nondeterministic
	// field an event carries. HiddenNs, on exchange phase events, is
	// the slice of the exchange's wire wait that elapsed between
	// BeginSync and Complete — time the pipeline hid behind
	// compute (always 0 on synchronous exchanges).
	StartNs  int64 `json:"start_ns,omitempty"`
	DurNs    int64 `json:"dur_ns,omitempty"`
	HiddenNs int64 `json:"hidden_ns,omitempty"`
}

// OriginHost decodes the Origin stamp: the emitting host index, or −1
// when the event is unstamped (single-process run or pre-schema trace).
func (e Event) OriginHost() int {
	if e.Origin == 0 {
		return -1
	}
	return int(e.Origin) - 1
}

// Header builds the version-1 header record for host (−1 for a merged
// cluster trace) in an n-host cluster at the given membership epoch.
func Header(host, hosts, epoch int) Event {
	return Event{Kind: KindHeader, Schema: TraceSchema,
		Host: int32(host), Hosts: int32(hosts), Epoch: int32(epoch)}
}

// Level selects how much a Trace records.
type Level int

const (
	// LevelPhase records cluster phase, batch, transport, and round
	// events — O(hosts) per BSP phase.
	LevelPhase Level = iota
	// LevelDetail additionally records per-(vertex, source) send events —
	// what the bound checkers consume.
	LevelDetail
)

// Trace is a fixed-capacity ring of events. A nil *Trace is the
// disabled tracer: every method is safe to call and does nothing, so
// call sites need no guards beyond the pointer test the compiler can
// hoist. Emit is safe for concurrent use; once the ring wraps, the
// oldest events are overwritten (Dropped reports how many).
type Trace struct {
	events []Event
	next   atomic.Int64
	level  Level
	// origin/epoch, when origin != 0, are stamped onto every emitted
	// event (SetStamp). Set before the first Emit; read-only after.
	origin int32
	epoch  int32
	// tee, when non-nil, receives a copy of every emitted event
	// (SetTee). The send is a value copy into the channel's buffer —
	// no allocation — and blocks when the consumer falls behind, so a
	// streaming sink never silently drops events the ring would keep.
	tee chan<- Event
}

// DefaultCapacity is the ring size NewTrace uses for capacity <= 0.
const DefaultCapacity = 1 << 15

// NewTrace allocates a trace ring. Capacity is rounded up to 1;
// capacity <= 0 selects DefaultCapacity.
func NewTrace(capacity int, level Level) *Trace {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Trace{events: make([]Event, capacity), level: level}
}

// Enabled reports whether the trace records anything (false for nil).
func (t *Trace) Enabled() bool { return t != nil }

// Detail reports whether per-(vertex, source) send events should be
// emitted (false for nil).
func (t *Trace) Detail() bool { return t != nil && t.level >= LevelDetail }

// SetStamp makes every subsequently emitted event carry the host index
// and membership epoch (Origin = 1+host, so host identity survives
// merging N hosts' files into one stream). Call before the run starts;
// Emit reads the stamp without synchronization.
func (t *Trace) SetStamp(host, epoch int) {
	if t == nil {
		return
	}
	t.origin = int32(host) + 1
	t.epoch = int32(epoch)
}

// SetTee attaches (or, with nil, detaches) a channel that receives a
// copy of every emitted event, for streaming sinks that must survive
// the process (StreamSink). Call before the run starts; pass a
// buffered channel sized for the burstiness you can absorb — Emit
// blocks when it fills rather than dropping.
func (t *Trace) SetTee(ch chan<- Event) {
	if t == nil {
		return
	}
	t.tee = ch
}

// Emit appends an event to the ring. No-op on a nil trace; never
// allocates on a non-nil one (stamping mutates the value copy, the tee
// copies it into channel storage).
func (t *Trace) Emit(e Event) {
	if t == nil {
		return
	}
	if t.origin != 0 && e.Origin == 0 {
		e.Origin = t.origin
		e.Epoch = t.epoch
	}
	i := t.next.Add(1) - 1
	t.events[i%int64(len(t.events))] = e
	if t.tee != nil {
		t.tee <- e
	}
}

// Emitted returns the total number of events emitted (including any
// overwritten after the ring wrapped).
func (t *Trace) Emitted() int64 {
	if t == nil {
		return 0
	}
	return t.next.Load()
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	if n := t.next.Load() - int64(len(t.events)); n > 0 {
		return n
	}
	return 0
}

// Reset discards all recorded events, keeping the ring storage. Not
// safe to call concurrently with Emit.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.next.Store(0)
}

// Events returns the retained events in emission order (oldest first).
// Must not race with Emit.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	n := t.next.Load()
	c := int64(len(t.events))
	if n <= c {
		return append([]Event(nil), t.events[:n]...)
	}
	start := n % c
	out := make([]Event, 0, c)
	out = append(out, t.events[start:]...)
	return append(out, t.events[:start]...)
}
