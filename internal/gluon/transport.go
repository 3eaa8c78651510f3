package gluon

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Transport is the byte-moving boundary of the BSP exchange: it carries
// one framed sync buffer per ordered host pair per exchange, and with it
// the one int64 per host whose sum the SPMD engine loops read as their
// global termination vote. Two backends exist:
//
//   - MemTransport: the in-process backend — every host lives in one
//     address space and a "send" is a slice hand-off. Its per-host views
//     (MemTransport.View) are the mesh an in-process MRBC run's hosts,
//     SPMD goroutines, exchange over. (An in-process dgalois cluster that
//     owns every host — SBBC's — needs no transport: its receivers read
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
//     only for local `to` hosts. The buffer passed to Send is the
//     caller's again when Send returns: remote backends copy it into a
//     record, a mesh view copies it into the exchange's own buffer unless
//     it is that buffer (MemView.Writer), and the shared in-process
//     backend hands the slice through to a caller whose barrier keeps it
//     alive until the gathers.
//   - Gather returns the payloads indexed by sender (entry `to`, empty
//     markers and silent senders have length 0); the returned slice is
//     valid until the exchange's buffer slot is reused, which cannot
//     happen before the caller opens a new exchange after every receiver
//     of this one gathered. Remote backends
//     block until every peer's message arrived or the stall deadline
//     expires; the in-process backend blocks until every sender sent or
//     was declared silent, and wakes a waiting gather with a
//     *TransportError when it is closed.
//   - Propose gives an exchange a host's term of its sum, before the
//     host's first Send of the exchange: remote backends carry the term
//     in the header of every message, empty markers included, outside
//     Messages/Bytes. A host that does not propose contributes 0.
//   - Sum returns the host's own term plus those of the senders it did
//     not declare silent, for the exchange the host gathered last (with
//     no silent sender, every host's). It never blocks: it is defined
//     from when the host has gathered every peer of the exchange
//     (Gather, or GatherFrom each) until its next gather call, and an
//     error outside that span. It ends the loan of the payloads the
//     gathers returned, as a gather call does (Streamer).
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
// until the receiver's next gather call (GatherFrom or Gather) or its Sum:
// a backend may receive into buffers it reuses, so consume a payload
// before asking again.
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

// MemTransport is the in-process backend of the Transport contract, used
// two ways:
//
//   - shared: the object itself owns every host, for a caller that puts
//     a barrier between an exchange's sends and its gathers (the
//     conformance suite, benchmark probes). Its window of open exchanges
//     is fixed at construction.
//   - mesh: View(h) is host h's own Transport, for SPMD hosts that run
//     as goroutines of one process (mrbcdist's in-process runs). A gather
//     blocks only on the sender it names, a host may run ahead of its
//     peers by as many exchanges as the data lets it (the window grows on
//     demand), and Close wakes every waiting gather with a
//     *TransportError.
//
// A send is a slice hand-off: the shared backend passes the caller's
// slice through, and a view's host that packs into the buffer the mesh
// lends it (MemView.Writer) hands its receiver the very bytes it wrote.
// A view copies any other buffer into one of the mesh's, so a caller that
// keeps reusing its own is safe too. Each channel keeps its buffers —
// about two, one its receiver still reads and one its sender packs — for
// the whole run: the steady-state exchange path allocates nothing.
type MemTransport struct {
	hosts int
	mesh  atomic.Bool // View was called: gathers may precede sends
	// slots hold the concurrently-open exchanges. Claiming a slot takes mu;
	// finding an open exchange's slot and freeing it are atomic reads and
	// writes of the slot's id, so once an exchange is open (its first
	// call) no Send or Gather of it locks. A mesh appends slots under mu
	// and publishes the grown list atomically.
	mu    sync.Mutex
	slots atomic.Pointer[[]*memSlot]
	// stats[from*hosts+to], written only by the (from, to) sender.
	stats []ChannelStats
	host  []memHost
	chans []memChan // [from*hosts+to], a mesh's buffers

	reduce    memReduce
	done      chan struct{} // closed by Close
	closeOnce sync.Once
}

// memHost is one host's receiving side: the exchange it gathered last
// and its sum, the buffers it still reads (mesh only), and the channel a
// peer wakes it on while it waits.
type memHost struct {
	gathered int // 1 + the exchange, so that the zero value names none
	sum      int64
	// loans are the buffers the host's last gather returned; they go back
	// to their senders at its next gather call or Sum.
	loans []*memBuf
	wake  chan struct{}
}

// memBuf is one of a mesh channel's buffers. busy: its sender packed it
// and its receiver has not handed it back.
type memBuf struct {
	w    Writer
	busy atomic.Bool
}

// memChan is a mesh channel's buffers. Only the sender appends to bufs;
// the receiver reaches a buffer through the cell that carried it.
type memChan struct {
	bufs []*memBuf
}

// Cell states.
const (
	cellEmpty  int32 = iota
	cellSent         // the sender's buffer is in buf
	cellSilent       // the receiver declared the sender silent
)

// memCell is one (from → to) channel of an open exchange.
type memCell struct {
	buf   []byte
	own   *memBuf // a mesh's: the channel buffer buf lies in
	state atomic.Int32
	// waiting: the receiver is parked until state leaves cellEmpty.
	waiting atomic.Bool
}

// memSlot is one open exchange. id is the exchange identifier, -1 when
// free. A slot is released once every receiver gathered.
type memSlot struct {
	id    atomic.Int64
	cells []memCell // [from*hosts+to]
	// inbox[to] is the row Gather returns, indexed by sender.
	inbox [][][]byte
	// terms[h] is host h's term of the exchange's sum (Propose; 0 if
	// none), silent[to*hosts+from] whether receiver to declared from
	// silent: to's sum leaves that term out.
	terms    []int64
	silent   []bool
	gathered []bool       // written by the receiver's gathers only, until the release
	taken    []int        // senders the receiver gathered one by one, likewise
	n        atomic.Int32 // receivers that gathered
}

func newMemSlot(hosts int) *memSlot {
	s := &memSlot{
		cells:    make([]memCell, hosts*hosts),
		inbox:    make([][][]byte, hosts),
		terms:    make([]int64, hosts),
		silent:   make([]bool, hosts*hosts),
		gathered: make([]bool, hosts),
		taken:    make([]int, hosts),
	}
	s.id.Store(-1)
	for to := range s.inbox {
		s.inbox[to] = make([][]byte, hosts)
	}
	return s
}

// NewMemTransport returns an in-process transport for the given host
// count with a single-exchange window (the classic BSP lockstep).
func NewMemTransport(hosts int) *MemTransport {
	return NewMemTransportWindow(hosts, 1)
}

// NewMemTransportWindow returns an in-process transport that can hold
// up to window exchanges open (sent but not yet fully gathered) at
// once; a mesh of views grows past it on demand. All slot storage is
// preallocated: the steady-state exchange path stays allocation-free at
// any window.
func NewMemTransportWindow(hosts, window int) *MemTransport {
	if hosts <= 0 {
		panic(fmt.Sprintf("gluon: invalid host count %d", hosts))
	}
	if window <= 0 {
		panic(fmt.Sprintf("gluon: invalid exchange window %d", window))
	}
	m := &MemTransport{hosts: hosts, done: make(chan struct{})}
	slots := make([]*memSlot, window)
	for i := range slots {
		slots[i] = newMemSlot(hosts)
	}
	m.slots.Store(&slots)
	m.stats = make([]ChannelStats, hosts*hosts)
	m.host = make([]memHost, hosts)
	for h := range m.host {
		m.host[h].wake = make(chan struct{}, 1)
		m.host[h].loans = make([]*memBuf, 0, hosts)
	}
	m.chans = make([]memChan, hosts*hosts)
	m.reduce.init(hosts)
	return m
}

// View returns host h's own view of the transport, the one an SPMD host
// running as a goroutine of this process is handed: Local reports h
// alone, and every other method is the transport's. Taking a view makes
// the transport a mesh (see MemTransport).
func (m *MemTransport) View(h int) *MemView {
	if h < 0 || h >= m.hosts {
		panic(fmt.Sprintf("gluon: view of host %d in a %d-host transport", h, m.hosts))
	}
	m.mesh.Store(true)
	return &MemView{MemTransport: m, self: h}
}

// MemView is one host's view of an in-process mesh. A dgalois cluster
// recognizes it by type: its hosts are goroutines of one process, whose
// job-level facts host 0 reports once, and its packs write straight into
// the exchange's buffers.
type MemView struct {
	*MemTransport
	self int
}

// Local reports whether h is the view's host.
func (v *MemView) Local(h int) bool { return h == v.self }

// Writer lends the view's host an empty buffer of its channel to `to`
// for the exchange, one no receiver still reads: a message packed into
// it and sent travels without a copy.
func (v *MemView) Writer(exchange, to int) *Writer {
	c := &v.open(exchange).cells[v.self*v.hosts+to]
	c.own = v.acquire(v.self, to)
	return &c.own.w
}

// acquire marks an idle buffer of the (from → to) channel busy and
// returns it empty, adding one when every buffer is busy. The buffer
// handed out has at least the capacity of the channel's largest: its
// payloads have reached that size, and growing a second buffer to it by
// appends would allocate several times over.
func (m *MemTransport) acquire(from, to int) *memBuf {
	ch := &m.chans[from*m.hosts+to]
	var idle *memBuf
	size := 0
	for _, b := range ch.bufs {
		if idle == nil && !b.busy.Load() {
			idle = b
		}
		size = max(size, cap(b.w.buf))
	}
	if idle == nil {
		idle = &memBuf{}
		ch.bufs = append(ch.bufs, idle)
	}
	idle.busy.Store(true)
	if cap(idle.w.buf) < size {
		idle.w.buf = make([]byte, 0, size)
	}
	idle.w.Reset()
	return idle
}

// slot returns the slot holding exchange, nil if it is not open.
func (m *MemTransport) slot(exchange int) *memSlot {
	for _, s := range *m.slots.Load() {
		if s.id.Load() == int64(exchange) {
			return s
		}
	}
	return nil
}

// open returns exchange's slot, claiming a free one if it has none yet.
// A mesh grows when no slot is free.
func (m *MemTransport) open(exchange int) *memSlot {
	if s := m.slot(exchange); s != nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.slot(exchange); s != nil {
		return s
	}
	slots := *m.slots.Load()
	for _, s := range slots {
		if s.id.Load() < 0 {
			s.id.Store(int64(exchange))
			return s
		}
	}
	if !m.mesh.Load() {
		panic(fmt.Sprintf("gluon: exchange %d exceeds the in-process window of %d open exchanges", exchange, len(slots)))
	}
	s := newMemSlot(m.hosts)
	s.id.Store(int64(exchange))
	grown := append(slots[:len(slots):len(slots)], s)
	m.slots.Store(&grown)
	return s
}

// release returns the slot to the free pool; the buffers its receivers
// still read stay theirs until their next gather or Sum.
func (s *memSlot) release() {
	for i := range s.cells {
		c := &s.cells[i]
		c.buf, c.own = nil, nil
		c.state.Store(cellEmpty)
	}
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
// address space. A view reports its own host alone.
func (m *MemTransport) Local(h int) bool { return h >= 0 && h < m.hosts }

// Backend returns "inproc".
func (m *MemTransport) Backend() string { return "inproc" }

// Send stores the buffer on the (from → to) channel and wakes the
// receiver if it waits for it. The shared backend hands the slice
// through; a mesh hands through only the channel's own buffer
// (MemView.Writer) and copies any other into it.
func (m *MemTransport) Send(exchange, from, to int, buf []byte) error {
	c := &m.open(exchange).cells[from*m.hosts+to]
	if m.mesh.Load() {
		if c.own == nil {
			c.own = m.acquire(from, to)
		}
		if w := &c.own.w; unsafe.SliceData(buf) != unsafe.SliceData(w.Bytes()) {
			w.Reset()
			w.Raw(buf)
		}
		buf = c.own.w.Bytes()
	}
	c.buf = buf
	m.post(c, to, cellSent)
	s := &m.stats[from*m.hosts+to]
	if len(buf) > 0 {
		s.Messages++
		s.Bytes += int64(len(buf))
	} else {
		s.Control++
	}
	return nil
}

// post moves a cell out of cellEmpty and wakes its receiver if it is
// parked on it.
func (m *MemTransport) post(c *memCell, to int, state int32) {
	c.state.Store(state)
	if c.waiting.Load() {
		select {
		case m.host[to].wake <- struct{}{}:
		default:
		}
	}
}

// await parks receiver to until from's cell of the slot is sent or
// declared silent, or the transport closes.
func (m *MemTransport) await(s *memSlot, exchange, to, from int) (*memCell, error) {
	c := &s.cells[from*m.hosts+to]
	for c.state.Load() == cellEmpty {
		c.waiting.Store(true)
		if c.state.Load() != cellEmpty {
			c.waiting.Store(false)
			break
		}
		select {
		case <-m.host[to].wake:
		case <-m.done:
		}
		c.waiting.Store(false)
		if m.closed() && c.state.Load() == cellEmpty {
			return nil, &TransportError{Host: from, Exchange: exchange, Pending: 1, Reason: "transport closed"}
		}
	}
	return c, nil
}

// endLoan hands host to's loans back to their senders.
func (m *MemTransport) endLoan(to int) {
	h := &m.host[to]
	for _, b := range h.loans {
		b.busy.Store(false)
	}
	h.loans = h.loans[:0]
}

// take hands receiver to a sent cell's payload: a mesh buffer that holds
// one stays busy until to's next gather or Sum, an empty one is idle at
// once.
func (m *MemTransport) take(c *memCell, to int) []byte {
	if b := c.own; b != nil {
		if len(c.buf) > 0 {
			m.host[to].loans = append(m.host[to].loans, b)
		} else {
			b.busy.Store(false)
		}
	}
	return c.buf
}

// Gather returns the exchange's buffers addressed to host `to`, indexed
// by sender, once every sender's is there. Once every receiver gathered,
// the exchange's slot returns to the free pool.
func (m *MemTransport) Gather(exchange, to int) ([][]byte, error) {
	m.endLoan(to)
	slot := m.open(exchange)
	bufs := slot.inbox[to]
	for from := range bufs {
		bufs[from] = nil
		if from == to {
			continue
		}
		c, err := m.await(slot, exchange, to, from)
		if err != nil {
			return nil, err
		}
		if c.state.Load() == cellSent {
			bufs[from] = m.take(c, to)
		}
	}
	m.finish(slot, exchange, to)
	return bufs, nil
}

// GatherFrom returns one sender's buffer once it is there, with no
// allocation. The receiver's last sender completes its gather, as Gather
// would (a lone host has no sender: its self-gather does).
func (m *MemTransport) GatherFrom(exchange, to, from int) ([]byte, error) {
	m.endLoan(to)
	if from == to && m.hosts > 1 {
		return nil, nil
	}
	slot := m.open(exchange)
	var buf []byte
	if from != to {
		c, err := m.await(slot, exchange, to, from)
		if err != nil {
			return nil, err
		}
		if c.state.Load() == cellSent {
			buf = m.take(c, to)
		}
	}
	if slot.taken[to]++; slot.taken[to] >= m.hosts-1 {
		m.finish(slot, exchange, to)
	}
	return buf, nil
}

// Silent marks the exchange's (from → to) channel as carrying nothing
// and leaves from's term out of to's sum.
func (m *MemTransport) Silent(exchange, to, from int) error {
	s := m.open(exchange)
	s.silent[to*m.hosts+from] = true
	m.post(&s.cells[from*m.hosts+to], to, cellSilent)
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
	for from := range slot.terms {
		if !slot.silent[to*m.hosts+from] {
			sum += slot.terms[from]
		}
	}
	m.host[to].gathered, m.host[to].sum = exchange+1, sum
	if int(slot.n.Add(1)) == m.hosts {
		slot.release()
	}
}

// Propose sets host's term of the exchange's sum, before its sends.
func (m *MemTransport) Propose(exchange, host int, local int64) error {
	m.open(exchange).terms[host] = local
	return nil
}

// Sum returns the sum of the exchange as host's Gather of it found it.
// A lone host has no sender to gather: its Sum completes the exchange.
func (m *MemTransport) Sum(exchange, host int) (int64, error) {
	m.endLoan(host)
	if s := m.slot(exchange); m.hosts == 1 && s != nil {
		m.finish(s, exchange, host)
	}
	if h := &m.host[host]; h.gathered == exchange+1 {
		return h.sum, nil
	}
	return 0, fmt.Errorf("gluon: Sum of exchange %d, which host %d did not gather last", exchange, host)
}

// AllReduce folds one value per host across all hosts. It is a genuine
// rendezvous — callers block until every host contributed — and counts
// as a gather call. Close wakes a waiting caller with a *TransportError.
func (m *MemTransport) AllReduce(host int, local int64, op ReduceOp) (int64, error) {
	if host < 0 || host >= m.hosts {
		return 0, fmt.Errorf("gluon: AllReduce host %d out of range [0,%d)", host, m.hosts)
	}
	m.endLoan(host)
	v, ok := m.reduce.join(local, op)
	if !ok {
		return 0, &TransportError{Host: -1, Exchange: -1, Reason: "transport closed during AllReduce"}
	}
	return v, nil
}

// Stats returns the channel's cumulative tallies.
func (m *MemTransport) Stats(from, to int) ChannelStats {
	return m.stats[from*m.hosts+to]
}

// Close wakes every waiting gather and all-reduce with a
// *TransportError; later waits fail at once. Safe to call more than
// once, on the transport or any view.
func (m *MemTransport) Close() error {
	m.closeOnce.Do(func() {
		close(m.done)
		m.reduce.close()
	})
	return nil
}

func (m *MemTransport) closed() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

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
	closed  bool
}

func (r *memReduce) init(hosts int) {
	r.hosts = hosts
	r.cond = sync.NewCond(&r.mu)
}

// join contributes local to the current round and returns the fold;
// false if the rendezvous was closed before the round completed.
func (r *memReduce) join(local int64, op ReduceOp) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, false
	}
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
		return r.out, true
	}
	for r.gen == gen && !r.closed {
		r.cond.Wait()
	}
	return r.out, r.gen != gen
}

func (r *memReduce) close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
}
