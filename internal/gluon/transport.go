package gluon

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Transport is the byte-moving boundary of the BSP exchange: it carries
// one framed sync buffer per ordered host pair per exchange, and with it
// the one int64 per host whose sum the SPMD engine loops read as their
// global termination vote. Two backends exist:
//
//   - MemTransport: the contract's in-process reference — every host
//     lives in one address space and a "send" is a slice hand-off. (An
//     in-process dgalois cluster needs no transport: its receivers read
//     the senders' writers.)
//   - TCPTransport (tcp.go): a real network backend for multi-process
//     clusters — one process per host, framed messages with per-channel
//     sequence numbers, acks, retransmission, and re-dial over TCP.
//
// Contract, shared by all backends (pinned by the conformance test in
// transport_conformance_test.go):
//
//   - Exchanges carry caller-chosen, pairwise-distinct int identifiers
//     (the cluster numbers them 0,1,2,… in the order it begins them,
//     pipelined or not). Within one exchange a
//     host sends exactly one message to every other host on a link that
//     is not silent (an empty buffer is the explicit "nothing this
//     exchange" marker) and gathers the same exchange afterwards.
//     Callers may hold a bounded window of exchanges open concurrently —
//     sent but not yet fully gathered — and every host must observe the
//     same window bound. The in-process backend's window is fixed at
//     construction (NewMemTransportWindow); the TCP backend buffers
//     per-exchange boxes on demand.
//   - Silent(exchange, to, from) is the receiver's side of a link on
//     which from sends nothing this exchange (a link outside a dgalois
//     exchange's set): from then reads as an empty marker that has
//     arrived, with a term of 0.
//   - Send is only valid for local `from` hosts; the gathers and Silent
//     only for local `to` hosts. The buffer passed to Send must stay
//     valid until the receiving side's gather of the same exchange
//     returns (remote backends copy on send; the in-process backend
//     hands the slice through).
//   - Gather returns the payloads indexed by sender (entry `to`, empty
//     markers and silent senders have length 0); the returned slice is
//     valid until the exchange's buffer slot is reused, which cannot
//     happen before the caller opens a new exchange after every receiver
//     of this one gathered. Remote backends
//     block until every peer's message arrived or the stall deadline
//     expires; the in-process backend relies on the caller's BSP
//     barrier instead (all Sends and Proposes of the exchange complete
//     before any Gather), so it never waits.
//   - Propose gives an exchange a host's term of its sum, before the
//     host's first Send of the exchange: remote backends carry the term
//     in the header of every message, empty markers included, outside
//     Messages/Bytes. A host that does not propose contributes 0.
//   - Sum returns the host's own term plus those of the senders it did
//     not declare silent, for the exchange the host gathered last (with
//     no silent sender, every host's). It never blocks: it is defined
//     from when the host has gathered every peer of the exchange
//     (Gather, or GatherFrom each) until its next gather call, and an
//     error outside that span.
//   - AllReduce folds one int64 per host with a commutative operation;
//     every host must call it the same number of times, in lockstep
//     with its exchanges. Remote backends run it as an exchange of empty
//     markers on a negative identifier (call r is exchange −r), the
//     value as the term, so it moves control records only and counts as
//     a gather call: for Sum, and for the loan of a payload GatherFrom
//     returned. No engine loop calls it; drivers use it as the barrier
//     that brings a mesh up.
//   - Concurrent use: Send for distinct (from, to) pairs, the gathers
//     and Silent for distinct receivers, and Propose, Sum and AllReduce
//     for distinct hosts may run concurrently (the conformance suite
//     runs them under -race).
type Transport interface {
	// Hosts returns the cluster size.
	Hosts() int
	// Local reports whether host h's engine runs in this process.
	Local(h int) bool
	// Backend names the implementation ("inproc", "tcp") — the label
	// transport-level obs events carry for remote backends.
	Backend() string
	// Send hands the (from → to) channel host from's message for the
	// given exchange. from must be local and from != to. An empty buf is
	// the explicit nothing-this-exchange marker.
	Send(exchange, from, to int, buf []byte) error
	// Gather returns the exchange's payloads addressed to local host
	// `to`, indexed by sender.
	Gather(exchange, to int) ([][]byte, error)
	// GatherFrom returns one sender's payload (see Streamer).
	GatherFrom(exchange, to, from int) ([]byte, error)
	// Silent declares that from sends local host `to` nothing.
	Silent(exchange, to, from int) error
	// Propose sets local host's term of the sum its Sends will carry.
	Propose(exchange, host int, local int64) error
	// Sum returns the sum of the exchange local host gathered last.
	Sum(exchange, host int) (int64, error)
	// AllReduce combines one value per host with op across the cluster
	// and returns the folded result to every host.
	AllReduce(host int, local int64, op ReduceOp) (int64, error)
	// Stats returns the cumulative per-channel tallies for a channel
	// with a local sender. (Channels with a remote sender read as zero:
	// each process accounts only the traffic it originates.)
	Stats(from, to int) ChannelStats
	// Close releases the backend's resources (sockets, goroutines).
	// Safe to call more than once.
	Close() error
}

// Streamer is the per-sender gather every Transport has: it returns
// one sender's payload for an exchange as soon as that sender's message
// arrives, instead of blocking for the whole exchange. The cluster
// substrate gathers with it, so a remote receiver starts unpacking
// early-arriving peers while slower peers' bytes are still in flight —
// the apply order stays the deterministic sender order (the substrate
// always consumes senders 0..hosts-1 in order), only the waiting overlaps.
//
// For a given (exchange, to) a caller must use either Gather or
// GatherFrom, never both, and must call GatherFrom exactly once per
// remote sender, silent ones included. GatherFrom(e, to, to) returns
// (nil, nil) without consuming anything. The returned payload is valid
// until the receiver's next gather call (GatherFrom or Gather): a backend
// may receive into buffers it reuses, so consume a payload before asking again.
type Streamer interface {
	GatherFrom(exchange, to, from int) ([]byte, error)
}

// ChannelStats counts one directed channel's transport activity.
// Messages/Bytes are logical sync payloads (the paper-model volume the
// dgalois Stats also track); Control counts empty markers, AllReduce's
// included; Retries/RetryBytes and Redials are remote-backend recovery
// work (always zero in-process).
type ChannelStats struct {
	Messages   int64 `json:"messages"`
	Bytes      int64 `json:"bytes"`
	Control    int64 `json:"control"`
	Retries    int64 `json:"retries"`
	RetryBytes int64 `json:"retry_bytes"`
	Redials    int64 `json:"redials"`
}

// Add accumulates o into c.
func (c *ChannelStats) Add(o ChannelStats) {
	c.Messages += o.Messages
	c.Bytes += o.Bytes
	c.Control += o.Control
	c.Retries += o.Retries
	c.RetryBytes += o.RetryBytes
	c.Redials += o.Redials
}

// ReduceOp is the fold applied by Transport.AllReduce.
type ReduceOp byte

const (
	// ReduceSum folds with addition.
	ReduceSum ReduceOp = 1
	// ReduceMax folds with max.
	ReduceMax ReduceOp = 2
)

// known reports whether op is one Apply folds with: TCP AllReduce
// refuses any other before it sends.
func (op ReduceOp) known() bool { return op == ReduceSum || op == ReduceMax }

// Apply folds b into a.
func (op ReduceOp) Apply(a, b int64) int64 {
	switch op {
	case ReduceSum:
		return a + b
	case ReduceMax:
		if b > a {
			return b
		}
		return a
	}
	panic(fmt.Sprintf("gluon: unknown reduce op %d", byte(op)))
}

func (op ReduceOp) String() string {
	switch op {
	case ReduceSum:
		return "sum"
	case ReduceMax:
		return "max"
	}
	return fmt.Sprintf("ReduceOp(%d)", byte(op))
}

// TransportError is the structured failure a remote backend raises when
// an exchange cannot complete within its stall deadline (a peer severed
// past recovery, or the transport was closed under it). It is the
// transport-level analogue of the dgalois *FaultError, which the
// cluster substrate converts it into at the exchange boundary — a dead
// peer therefore surfaces as a structured error, never a hang.
type TransportError struct {
	Host     int    // implicated peer, -1 if none identified
	Exchange int    // exchange identifier, −r for AllReduce call r; -1 also for lifecycle errors
	Pending  int    // messages still missing when the deadline expired
	Steps    int    // stall steps elapsed without progress
	Reason   string // human-readable cause
}

func (e *TransportError) Error() string {
	host := "unknown peer"
	if e.Host >= 0 {
		host = fmt.Sprintf("peer %d", e.Host)
	}
	return fmt.Sprintf("gluon: transport stalled (%s, exchange %d, %d pending, %d idle steps): %s",
		host, e.Exchange, e.Pending, e.Steps, e.Reason)
}

// MemTransport is the in-process reference backend of the Transport
// contract: every host is local and a send is a slice hand-off into a
// preallocated inbox matrix, so the steady-state exchange path performs
// zero heap allocations.
type MemTransport struct {
	hosts  int
	window int
	// slots hold the inbox matrices of the concurrently-open exchanges.
	// Claiming a slot takes mu; finding an open exchange's slot and
	// freeing it are atomic reads and writes of the slot's id, so once an
	// exchange is open (its first call) no Send or Gather of it locks.
	// The inbox cells themselves are plain writes (distinct (from, to)
	// pairs never share a cell).
	mu    sync.Mutex
	slots []memSlot
	// stats[from*hosts+to], written only by the (from, to) pack task —
	// distinct channels never share a slot, so plain fields race-free
	// under the caller's BSP barrier.
	stats []ChannelStats
	sums  []memSum // per host: the exchange it gathered last and its sum

	reduce memReduce
}

type memSum struct {
	gathered int // 1 + the exchange, so that the zero value names none
	sum      int64
}

// memSlot is one open exchange's preallocated inbox matrix. id is the
// exchange identifier, -1 when free. A slot is released once every
// receiver gathered; the inbox cells are left in place — every remote
// channel is re-sent or declared silent before the next gather of a
// reusing exchange.
type memSlot struct {
	id atomic.Int64
	// inbox[to][from]: the exchange's buffer on each channel.
	inbox [][][]byte
	// terms[h] is host h's term of the exchange's sum (Propose; 0 if none),
	// silent[to*hosts+from] whether receiver to declared from silent: to's
	// sum leaves that term out.
	terms    []int64
	silent   []bool
	gathered []bool       // written by the receiver's gathers only, until the release
	taken    []int        // senders the receiver gathered one by one, likewise
	n        atomic.Int32 // receivers that gathered
}

// NewMemTransport returns an in-process transport for the given host
// count with a single-exchange window (the classic BSP lockstep).
func NewMemTransport(hosts int) *MemTransport {
	return NewMemTransportWindow(hosts, 1)
}

// NewMemTransportWindow returns an in-process transport that can hold
// up to window exchanges open (sent but not yet fully gathered) at
// once. All slot storage is preallocated: the steady-state exchange
// path stays allocation-free at any window.
func NewMemTransportWindow(hosts, window int) *MemTransport {
	if hosts <= 0 {
		panic(fmt.Sprintf("gluon: invalid host count %d", hosts))
	}
	if window <= 0 {
		panic(fmt.Sprintf("gluon: invalid exchange window %d", window))
	}
	m := &MemTransport{hosts: hosts, window: window}
	m.slots = make([]memSlot, window)
	for i := range m.slots {
		s := &m.slots[i]
		s.id.Store(-1)
		s.inbox = make([][][]byte, hosts)
		for to := range s.inbox {
			s.inbox[to] = make([][]byte, hosts)
		}
		s.terms = make([]int64, hosts)
		s.silent = make([]bool, hosts*hosts)
		s.gathered = make([]bool, hosts)
		s.taken = make([]int, hosts)
	}
	m.stats = make([]ChannelStats, hosts*hosts)
	m.sums = make([]memSum, hosts)
	m.reduce.init(hosts)
	return m
}

// slot returns the slot holding exchange, nil if it is not open.
func (m *MemTransport) slot(exchange int) *memSlot {
	for i := range m.slots {
		if s := &m.slots[i]; s.id.Load() == int64(exchange) {
			return s
		}
	}
	return nil
}

// open returns exchange's slot, claiming a free one if it has none yet.
func (m *MemTransport) open(exchange int) *memSlot {
	if s := m.slot(exchange); s != nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.slot(exchange); s != nil {
		return s
	}
	if free := m.slot(-1); free != nil {
		free.id.Store(int64(exchange))
		return free
	}
	panic(fmt.Sprintf("gluon: exchange %d exceeds the in-process window of %d open exchanges", exchange, m.window))
}

// release returns the slot to the free pool.
func (s *memSlot) release() {
	clear(s.terms)
	clear(s.silent)
	clear(s.gathered)
	clear(s.taken)
	s.n.Store(0)
	s.id.Store(-1)
}

// Hosts returns the cluster size.
func (m *MemTransport) Hosts() int { return m.hosts }

// Local reports true for every host: the whole cluster shares this
// address space.
func (m *MemTransport) Local(h int) bool { return h >= 0 && h < m.hosts }

// Backend returns "inproc".
func (m *MemTransport) Backend() string { return "inproc" }

// Send stores the buffer on the (from → to) channel. The slice is
// handed through, not copied: it must stay valid until the receiver's
// Gather of this exchange returns (the BSP barrier guarantees the
// writer is not reused before then).
func (m *MemTransport) Send(exchange, from, to int, buf []byte) error {
	m.open(exchange).inbox[to][from] = buf
	s := &m.stats[from*m.hosts+to]
	if len(buf) > 0 {
		s.Messages++
		s.Bytes += int64(len(buf))
	} else {
		s.Control++
	}
	return nil
}

// Gather returns the exchange's buffers addressed to host `to`, indexed
// by sender. It never blocks: the in-process caller's BSP barrier has
// already sequenced every Send before the first Gather. Once every
// receiver gathered, the exchange's slot returns to the free pool.
func (m *MemTransport) Gather(exchange, to int) ([][]byte, error) {
	slot := m.open(exchange)
	bufs := slot.inbox[to]
	m.finish(slot, exchange, to)
	return bufs, nil
}

// GatherFrom returns one inbox cell, with no wait and no allocation.
// The receiver's last sender completes its gather, as Gather would (a
// lone host has no sender: its self-gather does).
func (m *MemTransport) GatherFrom(exchange, to, from int) ([]byte, error) {
	if from == to && m.hosts > 1 {
		return nil, nil
	}
	slot := m.open(exchange)
	buf := slot.inbox[to][from]
	if slot.taken[to]++; slot.taken[to] >= m.hosts-1 {
		m.finish(slot, exchange, to)
	}
	return buf, nil
}

// Silent empties the exchange's (from → to) cell, which still holds
// whatever an earlier exchange of the slot left there, and leaves from's
// term out of to's sum.
func (m *MemTransport) Silent(exchange, to, from int) error {
	s := m.open(exchange)
	s.inbox[to][from] = nil
	s.silent[to*m.hosts+from] = true
	return nil
}

// finish records receiver to's gather: its sum, and the slot's release
// after the last receiver.
func (m *MemTransport) finish(slot *memSlot, exchange, to int) {
	if slot.gathered[to] {
		return
	}
	slot.gathered[to] = true
	var sum int64
	for from, term := range slot.terms {
		if !slot.silent[to*m.hosts+from] {
			sum += term
		}
	}
	m.sums[to] = memSum{exchange + 1, sum}
	if int(slot.n.Add(1)) == m.hosts {
		slot.release()
	}
}

// Propose sets host's term of the exchange's sum. The caller's barrier
// puts every host's Propose, like its Sends, before the first Gather.
func (m *MemTransport) Propose(exchange, host int, local int64) error {
	m.open(exchange).terms[host] = local
	return nil
}

// Sum returns the sum of the exchange as host's Gather of it found it.
func (m *MemTransport) Sum(exchange, host int) (int64, error) {
	if s := m.sums[host]; s.gathered == exchange+1 {
		return s.sum, nil
	}
	return 0, fmt.Errorf("gluon: Sum of exchange %d, which host %d did not gather last", exchange, host)
}

// AllReduce folds one value per host across all hosts. Unlike Send and
// Gather it is a genuine rendezvous — callers block until every host
// contributed — because concurrent drivers (the conformance suite) have
// no outer barrier to lean on.
func (m *MemTransport) AllReduce(host int, local int64, op ReduceOp) (int64, error) {
	if host < 0 || host >= m.hosts {
		return 0, fmt.Errorf("gluon: AllReduce host %d out of range [0,%d)", host, m.hosts)
	}
	return m.reduce.join(local, op), nil
}

// Stats returns the channel's cumulative tallies.
func (m *MemTransport) Stats(from, to int) ChannelStats {
	return m.stats[from*m.hosts+to]
}

// Close is a no-op: the in-process backend holds no external resources.
func (m *MemTransport) Close() error { return nil }

// memReduce is a reusable all-reduce rendezvous: hosts of one round
// block until all N contributed, every caller receives the fold, and
// the barrier resets for the next round (generation-counted so a fast
// host entering round r+1 never corrupts round r's result).
type memReduce struct {
	mu      sync.Mutex
	cond    *sync.Cond
	hosts   int
	arrived int
	acc     int64
	gen     uint64
	out     int64
}

func (r *memReduce) init(hosts int) {
	r.hosts = hosts
	r.cond = sync.NewCond(&r.mu)
}

func (r *memReduce) join(local int64, op ReduceOp) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	gen := r.gen
	if r.arrived == 0 {
		r.acc = local
	} else {
		r.acc = op.Apply(r.acc, local)
	}
	r.arrived++
	if r.arrived == r.hosts {
		r.out = r.acc
		r.arrived = 0
		r.gen++
		r.cond.Broadcast()
		return r.out
	}
	for r.gen == gen {
		r.cond.Wait()
	}
	return r.out
}
