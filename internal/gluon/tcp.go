package gluon

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCP backend: one process per host, full mesh of TCP connections. The
// wire unit is the gluon frame (magic, per-channel seq, CRC-32C),
// read with length-prefixed framing straight off the header's len
// field. This is the one reliable-delivery protocol: cumulative
// per-sender sequence numbers, cumulative acks, step-based
// retransmission of unacked records, and connection re-dial on
// transient failure. A peer that makes no progress for DeadlineSteps
// consecutive steps surfaces as a structured *TransportError — never a
// hang — which dgalois reports as a *FaultError naming the host.
//
// Connections are asymmetric: each host dials every other host once
// and writes its hello and data records on that connection; standalone
// acks travel back on the same connection. The reverse direction is the
// peer's own dialed connection. Record payloads inside the frame:
//
//	hello  [1][u32 host][u32 epoch]                           frame seq 0, sent once per connection
//	data   [2][u32 exchange][u32 ack][u64 sum][sync payload]  frame seq = channel seq (1-based)
//	ack    [3][u32 cumulative seq]                            frame seq 0
//
// An empty data payload is the explicit nothing-this-exchange marker
// the Transport contract requires; it is counted as Control, not as a
// logical message, so per-host Stats from a multi-process run sum to
// the in-process run's. The sum field is the sender's term of the
// exchange (Propose): framing like the ack, outside Messages/Bytes.
// AllReduce is an exchange of empty markers on a negative identifier,
// its value the term. The exchange field is the identifier's low 32
// bits, and boxes are keyed the same way on both sides. A link the
// receiver declares Silent carries no record: the box takes the sender
// as an empty marker that has arrived, a record that still comes as a
// duplicate.
//
// A record is read into a buffer from a bounded per-transport free list
// and its payload lent to the gathering caller until its next gather
// call, when the buffer returns to the list: a warm exchange allocates
// nothing on either side. Empty markers are read into a fixed array per
// connection instead.
//
// Acks ride on reverse traffic. Every data record carries, in its ack
// field, the highest seq its sender has accepted from the record's
// destination — stamped at first transmission and stale on a
// retransmission, which is harmless because acks are monotone. A
// standalone ack record is written only when nothing carried it:
//
//   - tick flush: an ack owed across one full StepInterval with no
//     outbound record to that peer (an idle or one-directional link),
//   - duplicate or out-of-order record: answered at once, so a sender
//     that missed an ack converges,
//   - a standalone ack arrived while one is owed the other way: its
//     sender evidently has no traffic for an ack to ride back on,
//   - Close: every peer is sent one before the drain — each answers
//     with the ack Close is waiting for — and records that arrive while
//     closing are acked at once (no later record will).
//
// So a BSP exchange costs one write and one read per record, and the
// frames a host writes on its dialed connection are exactly its hello,
// records and retransmissions — what they were before acks moved.

const (
	recHello byte = 1
	recData  byte = 2
	recAck   byte = 3

	dataHeadLen = 17 // [2][u32 exchange][u32 ack][u64 sum]

	// recvBufSize is the read buffer on a connection's record side:
	// large enough that header and payload of a typical record (and a
	// few queued ones) come out of one read, small enough that a mesh's
	// worth of them does not show in the resident set. Payloads larger
	// than the buffer are read straight into their own slice.
	recvBufSize = 8 << 10
	// ackBufSize is the read buffer on the ack side, where only 21-byte
	// standalone acks arrive.
	ackBufSize = 64

	// A peer keeps up to maxFreeFrames acked frame buffers of at most
	// maxPooledFrame bytes for its next records, the receive side as many
	// per peer for the records it reads: a steady-state exchange allocates
	// nothing without pinning a large message's memory.
	maxFreeFrames  = 8
	maxPooledFrame = 64 << 10
)

// takeFrame returns an n-byte buffer, the newest free one if large enough.
func takeFrame(free *[][]byte, n int) []byte {
	if k := len(*free) - 1; k >= 0 {
		f := (*free)[k]
		(*free)[k] = nil
		*free = (*free)[:k]
		if cap(f) >= n {
			return f[:n]
		}
	}
	return make([]byte, n)
}

// keepFrame puts f on the free list unless that holds max or f is large.
func keepFrame(free *[][]byte, max int, f []byte) {
	if f != nil && len(*free) < max && cap(f) <= maxPooledFrame {
		*free = append(*free, f)
	}
}

// TCPOptions tunes the TCP backend's reliability loop. The zero value
// selects the defaults noted on each field.
type TCPOptions struct {
	// DeadlineSteps aborts an exchange or send queue that makes
	// no progress for this many consecutive steps (default 120). With
	// the default StepInterval this is a 3 s stall budget.
	DeadlineSteps int
	// StepInterval is the wall-clock length of one reliability step
	// (default 25 ms).
	StepInterval time.Duration
	// RetrySteps is how many steps without ack progress an unacked
	// record waits before the sender retransmits its queue (default 8).
	RetrySteps int
	// Epoch is the cluster membership epoch this transport belongs to.
	// Hellos are epoch-stamped and a listener rejects connections whose
	// epoch differs from its own, so after an elastic restart the stale
	// retransmissions of a killed host's socket (or of a survivor that
	// has not been restarted yet) cannot leak into the new attempt.
	Epoch int
}

// dialTimeout bounds a single (re-)dial attempt.
const dialTimeout = 2 * time.Second

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DeadlineSteps <= 0 {
		o.DeadlineSteps = 120
	}
	if o.StepInterval <= 0 {
		o.StepInterval = 25 * time.Millisecond
	}
	if o.RetrySteps <= 0 {
		o.RetrySteps = 8
	}
	return o
}

// TCPTransport is the multi-process Transport backend. Each process
// owns exactly one host; NewTCPTransport wires it to the rest of the
// cluster through the address list.
type TCPTransport struct {
	self  int
	hosts int
	opts  TCPOptions

	ln    net.Listener
	peers []*tcpPeer // nil at index self

	mu         sync.Mutex
	inSeq      []uint32                // highest accepted seq per sender
	ackOwed    []uint8                 // per sender: ackNone, ackFresh or ackStale
	closing    bool                    // Close has begun: ack every record at once
	inConns    []net.Conn              // current accepted conn per sender (ack path)
	boxes      map[uint32]*exchangeBox // keyed by the exchange field: the identifier's low 32 bits
	freeBoxes  []*exchangeBox          // fully consumed boxes, reset for reuse
	recv       [][]byte                // free buffers to read records into
	lent       []byte                  // recv buffer behind the payload GatherFrom returned last
	sumEx      int                     // exchange gathered last, -1 before the first
	terms      []int64                 // and every host's term of it
	allReduces int                     // AllReduce calls so far: call r is exchange −r

	ticker      *time.Ticker  // one StepInterval clock for every wait loop
	progress    chan struct{} // nudged on any receive progress
	ackProgress chan struct{} // nudged on any ack progress; only Close listens

	stats []ChannelStats // [from*hosts+to], self row live, others zero

	stalled atomic.Bool // a wait loop hit the stall deadline

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// ackOwed states. A fresh record makes its sender's ack ackFresh; the
// first tick that finds it still owed ages it to ackStale and the next
// one flushes it, so a standalone ack goes out only after a full
// StepInterval in which no outbound record carried it.
const (
	ackNone uint8 = iota
	ackFresh
	ackStale
)

type exchangeBox struct {
	frames [][]byte // per sender, the buffer its record was read into; nil for an empty marker
	got    []bool
	taken  []bool // consumed by GatherFrom
	nTaken int
	terms  []int64 // per host, its term of the exchange: Propose's, or the one its record carried
}

// NewTCPTransport starts the backend for local host self in a cluster
// whose hosts listen at addrs (addrs[self] must be ln's address; ln is
// accepted as a pre-created listener so callers can bind :0 and learn
// the port before the cluster's address book is distributed). Peers
// are dialed lazily on first send, with re-dial on failure.
func NewTCPTransport(self int, addrs []string, ln net.Listener, opts TCPOptions) (*TCPTransport, error) {
	hosts := len(addrs)
	if self < 0 || self >= hosts {
		return nil, fmt.Errorf("gluon: tcp host %d out of range [0,%d)", self, hosts)
	}
	if ln == nil {
		return nil, errors.New("gluon: tcp transport needs a listener")
	}
	opts = opts.withDefaults()
	t := &TCPTransport{
		self:        self,
		hosts:       hosts,
		opts:        opts,
		ticker:      time.NewTicker(opts.StepInterval),
		ln:          ln,
		peers:       make([]*tcpPeer, hosts),
		inSeq:       make([]uint32, hosts),
		ackOwed:     make([]uint8, hosts),
		inConns:     make([]net.Conn, hosts),
		boxes:       make(map[uint32]*exchangeBox),
		sumEx:       -1,
		terms:       make([]int64, hosts),
		progress:    make(chan struct{}, 1),
		ackProgress: make(chan struct{}, 1),
		stats:       make([]ChannelStats, hosts*hosts),
		closed:      make(chan struct{}),
	}
	for h := 0; h < hosts; h++ {
		if h == self {
			continue
		}
		t.peers[h] = newTCPPeer(t, h, addrs[h])
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Hosts returns the cluster size.
func (t *TCPTransport) Hosts() int { return t.hosts }

// Local reports whether h is the one host this process runs.
func (t *TCPTransport) Local(h int) bool { return h == t.self }

// Backend returns "tcp".
func (t *TCPTransport) Backend() string { return "tcp" }

// Send enqueues host self's message to `to` for the exchange. The
// payload is copied into the record, so the caller's buffer is free
// for reuse immediately. Delivery is asynchronous; loss is detected
// and reported by the eventual Gather or a later Send's queue check.
func (t *TCPTransport) Send(exchange, from, to int, buf []byte) error {
	if from != t.self {
		return fmt.Errorf("gluon: tcp Send from non-local host %d (self %d)", from, t.self)
	}
	if to == from || to < 0 || to >= t.hosts {
		return fmt.Errorf("gluon: tcp Send to invalid host %d", to)
	}
	var head [dataHeadLen]byte
	head[0] = recData
	binary.LittleEndian.PutUint32(head[1:], uint32(exchange))
	t.mu.Lock()
	s := &t.stats[from*t.hosts+to]
	if len(buf) > 0 {
		s.Messages++
		s.Bytes += int64(len(buf))
	} else {
		s.Control++
	}
	ack := t.takeAckLocked(to)
	if box := t.boxes[uint32(exchange)]; box != nil {
		binary.LittleEndian.PutUint64(head[9:], uint64(box.terms[t.self]))
	}
	t.mu.Unlock()
	binary.LittleEndian.PutUint32(head[5:], ack)
	return t.peers[to].enqueue(head[:], buf)
}

// Propose sets the term of the exchange's sum that the exchange's Sends
// will carry.
func (t *TCPTransport) Propose(exchange, host int, local int64) error {
	if host != t.self {
		return fmt.Errorf("gluon: tcp Propose for non-local host %d (self %d)", host, t.self)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.boxLocked(exchange).terms[t.self] = local
	return nil
}

// Sum returns the sum of the terms of the exchange gathered last: the
// local host's own and the one each peer's record carried.
func (t *TCPTransport) Sum(exchange, host int) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hosts == 1 && exchange != t.sumEx { // no peer: gathered as it stands
		t.finishLocked(exchange, t.boxLocked(exchange))
	}
	if host != t.self || exchange != t.sumEx {
		return 0, fmt.Errorf("gluon: tcp Sum of exchange %d for host %d: host %d gathered exchange %d last", exchange, host, t.self, t.sumEx)
	}
	return fold(t.terms, ReduceSum), nil
}

// fold combines terms with op.
func fold(terms []int64, op ReduceOp) int64 {
	acc := terms[0]
	for _, v := range terms[1:] {
		acc = op.Apply(acc, v)
	}
	return acc
}

// takeAckLocked returns the cumulative ack owed to peer h for the
// caller to put on the wire, and marks it carried. Called with t.mu
// held.
func (t *TCPTransport) takeAckLocked(h int) uint32 {
	t.ackOwed[h] = ackNone
	return t.inSeq[h]
}

// Gather blocks until every peer's message for the exchange arrived
// (empty markers and silent peers included) or the stall deadline
// expires, then returns the payloads indexed by sender. The caller owns
// them: each loan is written off, its buffer never returns to the free list.
func (t *TCPTransport) Gather(exchange, to int) ([][]byte, error) {
	bufs := make([][]byte, t.hosts)
	for from := range bufs {
		buf, err := t.GatherFrom(exchange, to, from)
		if err != nil {
			return nil, err
		}
		bufs[from] = buf
		t.mu.Lock()
		t.lent = nil
		t.mu.Unlock()
	}
	return bufs, nil
}

// GatherFrom returns one sender's payload for the exchange as soon as
// it arrives: the per-sender half of Gather, letting the caller unpack
// early peers while late peers' bytes are still in flight. The payload
// is on loan until the next gather call; the exchange's box is released
// once every remote sender was taken.
func (t *TCPTransport) GatherFrom(exchange, to, from int) ([]byte, error) {
	if to != t.self {
		return nil, fmt.Errorf("gluon: tcp GatherFrom for non-local host %d (self %d)", to, t.self)
	}
	if from == to || t.hosts == 1 {
		return nil, nil
	}
	if from < 0 || from >= t.hosts {
		return nil, fmt.Errorf("gluon: tcp GatherFrom from invalid host %d", from)
	}
	steps := 0
	for {
		t.mu.Lock()
		// The previous call's payload is dead, its buffer free again.
		keepFrame(&t.recv, maxFreeFrames*(t.hosts-1), t.lent)
		t.lent = nil
		box := t.boxes[uint32(exchange)]
		if box != nil && box.got[from] && !box.taken[from] {
			var buf []byte
			if t.lent = box.frames[from]; t.lent != nil {
				buf = t.lent[FrameOverhead+dataHeadLen:]
			}
			box.taken[from] = true
			box.nTaken++
			if box.nTaken == t.hosts-1 {
				t.finishLocked(exchange, box)
			}
			t.mu.Unlock()
			return buf, nil
		}
		t.mu.Unlock()
		if err := t.peerError(); err != nil {
			return nil, err
		}
		// Wait for receive progress, the next reliability tick, or Close.
		// Waits share the transport's one ticker, so a tick that fired
		// with nobody waiting is seen by the next wait at once; that skews
		// a stall count by at most one step.
		select {
		case <-t.progress:
			steps = 0
		case <-t.ticker.C:
			steps++
		case <-t.closed:
			return nil, &TransportError{Host: from, Exchange: exchange, Steps: steps, Reason: "transport closed"}
		}
		if steps > t.opts.DeadlineSteps {
			// The run is about to fail: Close need not linger for acks
			// on its behalf.
			t.stalled.Store(true)
			host := from
			if stalled := t.mostStalledPeer(); stalled >= 0 {
				host = stalled
			}
			return nil, &TransportError{Host: host, Exchange: exchange, Pending: 1, Steps: steps,
				Reason: "stall deadline exceeded waiting for exchange message"}
		}
	}
}

// Silent marks from's record for the exchange arrived, as an empty
// marker with a zero term: the gather takes it without a wait.
func (t *TCPTransport) Silent(exchange, to, from int) error {
	if to != t.self || from < 0 || from >= t.hosts {
		return fmt.Errorf("gluon: tcp Silent(%d → %d) on host %d", from, to, t.self)
	}
	t.mu.Lock()
	t.boxLocked(exchange).got[from] = true
	t.mu.Unlock()
	return nil
}

// AllReduce folds one value per host across the cluster. Call r is
// exchange −r, of empty markers whose term is the value: it gathers
// every peer, so it counts as a gather call, and a stall surfaces as
// GatherFrom's *TransportError on that exchange.
func (t *TCPTransport) AllReduce(host int, local int64, op ReduceOp) (int64, error) {
	if host != t.self {
		return 0, fmt.Errorf("gluon: tcp AllReduce for non-local host %d (self %d)", host, t.self)
	}
	if !op.known() {
		return 0, fmt.Errorf("gluon: tcp AllReduce with unknown op %d", byte(op))
	}
	if t.hosts == 1 {
		return local, nil
	}
	t.mu.Lock()
	t.allReduces++
	exchange := -t.allReduces
	t.boxLocked(exchange).terms[t.self] = local
	t.mu.Unlock()
	for h := range t.peers {
		if h == t.self {
			continue
		}
		if err := t.Send(exchange, t.self, h, nil); err != nil {
			return 0, err
		}
	}
	for h := range t.peers {
		if _, err := t.GatherFrom(exchange, t.self, h); err != nil {
			return 0, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return fold(t.terms, op), nil
}

// Stats returns the channel's cumulative tallies. Only channels whose
// sender is the local host carry data; each process accounts the
// traffic it originates, so summing across processes reconstructs the
// cluster totals without double counting.
func (t *TCPTransport) Stats(from, to int) ChannelStats {
	if from < 0 || from >= t.hosts || to < 0 || to >= t.hosts {
		return ChannelStats{}
	}
	s := &t.stats[from*t.hosts+to]
	t.mu.Lock()
	out := *s
	t.mu.Unlock()
	if from == t.self {
		p := t.peers[to]
		if p != nil {
			p.mu.Lock()
			out.Retries += p.retries
			out.RetryBytes += p.retryBytes
			out.Redials += p.redials
			p.mu.Unlock()
		}
	}
	return out
}

// Close tears the backend down: the listener, every connection, and
// the retry goroutines. In-flight Gather/AllReduce calls return a
// structured transport-closed error. Before tearing down, Close
// sends every peer a standalone ack — no later record will carry what
// it owes, and the peers answer with what they owe — and lingers
// (bounded by the stall budget) until every outbound record has been
// acked: hosts finish the final exchange at different times,
// and a fast host quitting immediately would strip the retransmission
// machinery out from under a last frame the network dropped — turning
// a recoverable loss into a peer's stall. Peers already in permanent
// error are not waited for, and a transport whose own wait already hit
// the stall deadline does not linger at all: its run has failed, and
// the records still unacked are the ones the dead peer never will.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		t.mu.Lock()
		t.closing = true
		t.mu.Unlock()
		// Owed or not: a standalone ack is answered in kind (readAcks),
		// which brings this side's last acks in without waiting for the
		// peers' next tick.
		for h := range t.peers {
			t.writeAck(h, ackNone)
		}
		if !t.stalled.Load() {
			t.drainOutbound()
		}
		close(t.closed)
		t.ticker.Stop()
		t.ln.Close()
		for _, p := range t.peers {
			if p != nil {
				p.close()
			}
		}
		t.mu.Lock()
		for i, c := range t.inConns {
			if c != nil {
				c.Close()
				t.inConns[i] = nil
			}
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
	return nil
}

// drainOutbound blocks until every peer's unacked queue is empty or in
// permanent error, or one stall budget elapses. It wakes on ack
// progress rather than polling; the step loops are still running, so
// stale queues keep being retransmitted meanwhile.
func (t *TCPTransport) drainOutbound() {
	budget := time.NewTimer(time.Duration(t.opts.DeadlineSteps) * t.opts.StepInterval)
	defer budget.Stop()
	for t.outboundPending() {
		select {
		case <-t.ackProgress:
		case <-budget.C:
			return
		}
	}
}

func (t *TCPTransport) outboundPending() bool {
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.trimLocked()
		pending := p.err == nil && len(p.unacked) > 0
		p.mu.Unlock()
		if pending {
			return true
		}
	}
	return false
}

// peerError returns the first permanent peer failure, if any.
func (t *TCPTransport) peerError() error {
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		err := p.err
		p.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// mostStalledPeer names the peer with unacked outbound data that has
// gone the longest without ack progress, or -1 when every queue is
// moving. When a collective deadline trips, this is the best available
// diagnosis of WHO is dead: a peer ignoring retransmissions is far
// stronger evidence than a missing payload, which any upstream stall
// can explain — and the elastic coordinator's survivor vote needs every
// host to name the true victim, not the first casualty it noticed. A
// live but idle peer never qualifies: its tick flush acks within two
// steps.
func (t *TCPTransport) mostStalledPeer() (host int) {
	host = -1
	best := 0
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.trimLocked()
		if len(p.unacked) > 0 && p.waitSteps > best {
			best = p.waitSteps
			host = p.host
		}
		p.mu.Unlock()
	}
	return host
}

func nudge(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// acceptLoop owns the listener: every accepted connection gets a
// reader goroutine that identifies the sender from its hello record
// and then feeds data records through the dedup filter.
func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

func (t *TCPTransport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	br := bufio.NewReaderSize(conn, recvBufSize)
	// First frame must be the hello identifying the dialing host:
	// [recHello][u32 host][u32 epoch]. A dialer from another membership
	// epoch — a killed host's socket still retransmitting, or a survivor
	// not yet rolled over — is dropped at the door.
	_, body, _, err := readFrame(br, nil, newFrame)
	if err != nil || len(body) != 9 || body[0] != recHello {
		return
	}
	from := int(binary.LittleEndian.Uint32(body[1:]))
	if from < 0 || from >= t.hosts || from == t.self ||
		int(binary.LittleEndian.Uint32(body[5:])) != t.opts.Epoch {
		return
	}
	t.mu.Lock()
	if old := t.inConns[from]; old != nil {
		old.Close()
	}
	t.inConns[from] = conn
	t.mu.Unlock()
	// Empty markers are read here and never touch the free list.
	var ctl [FrameOverhead + dataHeadLen]byte
	grow := func(n int) []byte {
		t.mu.Lock()
		defer t.mu.Unlock()
		return takeFrame(&t.recv, n)
	}
	for {
		seq, body, frame, err := readFrame(br, ctl[:], grow)
		kept := err == nil && len(body) > 0 && t.receiveRecord(from, seq, body, frame)
		if frame != nil && !kept {
			t.mu.Lock()
			keepFrame(&t.recv, maxFreeFrames*(t.hosts-1), frame)
			t.mu.Unlock()
		}
		if err != nil {
			return
		}
	}
}

// receiveRecord hands the record's piggybacked ack to the sender's
// peer, runs the cumulative-seq dedup filter and dispatches an accepted
// record. The ack a fresh record earns is left for the next outbound
// record (or the tick flush) to carry; a duplicate or out-of-order one
// is re-acked at once, so a sender that missed an ack still converges.
// frame is the free-list buffer body sits in, if any; kept reports that
// a box took it over, as a malformed or unexpected record's is not.
// Anything but a data record with a whole header is neither accepted
// nor acked.
func (t *TCPTransport) receiveRecord(from int, seq uint32, body, frame []byte) (kept bool) {
	if body[0] != recData || len(body) < dataHeadLen {
		return false
	}
	t.peers[from].ackTo(binary.LittleEndian.Uint32(body[5:]))
	t.mu.Lock()
	fresh := seq == t.inSeq[from]+1
	if fresh {
		t.inSeq[from] = seq
		kept = t.dispatchLocked(from, body, frame)
		if t.ackOwed[from] == ackNone {
			t.ackOwed[from] = ackFresh
		}
	}
	ackNow := !fresh || t.closing
	t.mu.Unlock()
	if fresh {
		nudge(t.progress)
	}
	if ackNow {
		t.writeAck(from, ackNone)
	}
	return kept
}

// ageAck is the tick flush: an ack still owed from before the previous
// tick is written, a fresh one becomes stale.
func (t *TCPTransport) ageAck(h int) {
	t.writeAck(h, ackStale)
	t.mu.Lock()
	if t.ackOwed[h] == ackFresh {
		t.ackOwed[h] = ackStale
	}
	t.mu.Unlock()
}

// writeAck sends a standalone cumulative ack to peer h, on the
// connection h dialed, if the ack owed has reached minAge (ackNone:
// unconditionally). Receiver-side acks are control traffic on the
// return channel.
func (t *TCPTransport) writeAck(h int, minAge uint8) {
	t.mu.Lock()
	conn := t.inConns[h]
	if t.ackOwed[h] < minAge || conn == nil {
		t.mu.Unlock()
		return
	}
	ack := t.takeAckLocked(h)
	t.stats[t.self*t.hosts+h].Control++
	t.mu.Unlock()
	// A failed write is a dead connection: the peer re-dials,
	// retransmits, and the duplicate is re-acked.
	_ = writeFrame(conn, 0, []byte{recAck, byte(ack), byte(ack >> 8), byte(ack >> 16), byte(ack >> 24)})
}

// dispatchLocked files a fresh data record in its exchange's box.
func (t *TCPTransport) dispatchLocked(from int, body, frame []byte) (kept bool) {
	box := t.boxLocked(int(binary.LittleEndian.Uint32(body[1:])))
	if box.got[from] {
		return false
	}
	if len(body) > dataHeadLen && frame == nil {
		// A payload short enough to have been read into the
		// connection's array, which the next record overwrites.
		frame = takeFrame(&t.recv, FrameOverhead+len(body))
		copy(frame[FrameOverhead:], body)
	}
	box.got[from] = true
	box.frames[from] = frame
	box.terms[from] = int64(binary.LittleEndian.Uint64(body[9:]))
	return true
}

// boxLocked returns the exchange's box, opening it if there is none yet.
func (t *TCPTransport) boxLocked(exchange int) *exchangeBox {
	box := t.boxes[uint32(exchange)]
	if box != nil {
		return box
	}
	if k := len(t.freeBoxes) - 1; k >= 0 {
		box = t.freeBoxes[k]
		t.freeBoxes = t.freeBoxes[:k]
	} else {
		box = &exchangeBox{frames: make([][]byte, t.hosts), got: make([]bool, t.hosts),
			taken: make([]bool, t.hosts), terms: make([]int64, t.hosts)}
	}
	t.boxes[uint32(exchange)] = box
	return box
}

// finishLocked retires the box of an exchange gathered from every peer —
// the payloads were handed out one by one, nothing refers to it — keeping
// the terms, and the box for a later exchange.
func (t *TCPTransport) finishLocked(exchange int, box *exchangeBox) {
	delete(t.boxes, uint32(exchange))
	t.sumEx = exchange
	copy(t.terms, box.terms)
	clear(box.frames)
	clear(box.got)
	clear(box.taken)
	clear(box.terms)
	box.nTaken = 0
	t.freeBoxes = append(t.freeBoxes, box)
}

// tcpPeer is the sender side of one outbound channel: it owns the
// dialed connection, the unacked queue, and the step loop that
// retransmits, re-dials, flushes the acks owed to the peer, and
// declares it dead after the stall deadline.
type tcpPeer struct {
	t    *TCPTransport
	host int
	addr string

	// ackIn is the highest cumulative ack the peer has sent, by either
	// route. Readers only raise it; whoever next holds mu trims the
	// queue to it (trimLocked). The receive path therefore never waits
	// on mu, which a sender holds across a blocking socket write — two
	// hosts writing large records to each other would otherwise each
	// stop reading to wait for the other's write.
	ackIn atomic.Uint32

	mu         sync.Mutex
	conn       net.Conn
	seq        uint32 // last assigned channel seq
	acked      uint32 // ackIn as of the last trim
	unacked    []tcpRecord
	free       [][]byte // acked frame buffers for reuse
	idleSteps  int      // steps without ack progress since the last (re)transmission
	waitSteps  int      // steps without ack progress
	retries    int64
	retryBytes int64
	redials    int64
	everConn   bool
	err        *TransportError

	closed chan struct{}
	once   sync.Once
}

type tcpRecord struct {
	seq   uint32
	frame []byte
}

func newTCPPeer(t *TCPTransport, host int, addr string) *tcpPeer {
	p := &tcpPeer{t: t, host: host, addr: addr, closed: make(chan struct{})}
	t.wg.Add(1)
	go p.stepLoop()
	return p
}

// enqueue frames head∥payload as the channel's next record, appends it
// to the unacked queue, and attempts an immediate transmission.
// Transmission failures are left to the step loop's re-dial/retry
// machinery.
func (p *tcpPeer) enqueue(head, payload []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	p.trimLocked()
	frame := takeFrame(&p.free, FrameOverhead+len(head)+len(payload))
	n := copy(frame[FrameOverhead:], head)
	copy(frame[FrameOverhead+n:], payload)
	p.seq++
	sealFrame(frame, p.seq)
	p.unacked = append(p.unacked, tcpRecord{seq: p.seq, frame: frame})
	if p.ensureConnLocked() {
		if err := p.writeLocked(frame); err != nil {
			p.dropConnLocked()
		}
	}
	return nil
}

// ackTo records a cumulative ack from the peer. Lock-free: see ackIn.
func (p *tcpPeer) ackTo(ack uint32) {
	for {
		cur := p.ackIn.Load()
		if ack <= cur {
			return
		}
		if p.ackIn.CompareAndSwap(cur, ack) {
			nudge(p.t.ackProgress)
			return
		}
	}
}

// trimLocked drops the records the peer has acked since the last trim
// and, if there were any, restarts the no-ack-progress clocks. Called
// with p.mu held, before anything that reads the queue or the clocks.
func (p *tcpPeer) trimLocked() {
	ack := p.ackIn.Load()
	if ack == p.acked {
		return
	}
	p.acked = ack
	p.idleSteps, p.waitSteps = 0, 0
	k := 0
	for k < len(p.unacked) && p.unacked[k].seq <= ack {
		keepFrame(&p.free, maxFreeFrames, p.unacked[k].frame)
		k++
	}
	n := copy(p.unacked, p.unacked[k:])
	clear(p.unacked[n:])
	p.unacked = p.unacked[:n]
}

// stepLoop is the reliability clock: every StepInterval it flushes an
// ack nothing carried, checks ack progress, retransmits a stale queue,
// re-dials a dead connection, and converts DeadlineSteps of no
// progress into a permanent peer error.
func (p *tcpPeer) stepLoop() {
	defer p.t.wg.Done()
	ticker := time.NewTicker(p.t.opts.StepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.closed:
			return
		case <-ticker.C:
		}
		p.t.ageAck(p.host)
		p.mu.Lock()
		p.trimLocked()
		if p.err != nil || len(p.unacked) == 0 {
			p.idleSteps = 0
			p.waitSteps = 0
			p.mu.Unlock()
			continue
		}
		p.idleSteps++
		p.waitSteps++
		if p.waitSteps > p.t.opts.DeadlineSteps {
			p.err = &TransportError{Host: p.host, Exchange: -1, Pending: len(p.unacked), Steps: p.waitSteps,
				Reason: fmt.Sprintf("no ack progress from peer %d", p.host)}
			p.mu.Unlock()
			nudge(p.t.progress)
			continue
		}
		if p.idleSteps >= p.t.opts.RetrySteps {
			p.idleSteps = 0
			if p.ensureConnLocked() {
				for _, rec := range p.unacked {
					p.retries++
					p.retryBytes += int64(len(rec.frame))
					if err := p.writeLocked(rec.frame); err != nil {
						p.dropConnLocked()
						break
					}
				}
			}
		}
		p.mu.Unlock()
	}
}

// ensureConnLocked dials the peer if no connection is live, sends the
// hello, and starts the ack reader. Called with p.mu held.
func (p *tcpPeer) ensureConnLocked() bool {
	if p.conn != nil {
		return true
	}
	select {
	case <-p.closed:
		return false
	default:
	}
	conn, err := net.DialTimeout("tcp", p.addr, dialTimeout)
	if err != nil {
		return false
	}
	hello := make([]byte, 9)
	hello[0] = recHello
	binary.LittleEndian.PutUint32(hello[1:], uint32(p.t.self))
	binary.LittleEndian.PutUint32(hello[5:], uint32(p.t.opts.Epoch))
	if err := writeFrame(conn, 0, hello); err != nil {
		conn.Close()
		return false
	}
	p.conn = conn
	// The first dial is normal startup; only reconnections count as
	// recovery work.
	if p.everConn {
		p.redials++
	}
	p.everConn = true
	p.t.wg.Add(1)
	go p.readAcks(conn)
	return true
}

func (p *tcpPeer) writeLocked(frame []byte) error {
	p.conn.SetWriteDeadline(time.Now().Add(time.Duration(p.t.opts.DeadlineSteps) * p.t.opts.StepInterval))
	_, err := p.conn.Write(frame)
	return err
}

func (p *tcpPeer) dropConnLocked() {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}

// readAcks consumes standalone cumulative acks from the dialed
// connection. Exits when the connection dies; the step loop re-dials.
func (p *tcpPeer) readAcks(conn net.Conn) {
	defer p.t.wg.Done()
	br := bufio.NewReaderSize(conn, ackBufSize)
	var ctl [FrameOverhead + 5]byte
	for {
		_, body, _, err := readFrame(br, ctl[:], newFrame)
		if err != nil {
			p.mu.Lock()
			if p.conn == conn {
				p.dropConnLocked()
			}
			p.mu.Unlock()
			return
		}
		if len(body) != 5 || body[0] != recAck {
			continue
		}
		p.ackTo(binary.LittleEndian.Uint32(body[1:]))
		// A peer acking standalone has nothing on its way here for an
		// ack to come back on, and may be waiting for ours in Close.
		p.t.writeAck(p.host, ackFresh)
	}
}

func (p *tcpPeer) close() {
	p.once.Do(func() { close(p.closed) })
	p.mu.Lock()
	p.dropConnLocked()
	p.mu.Unlock()
}

// readFrame reads one gluon frame off a buffered stream: it peeks at
// the fixed header, then reads header and exactly the payload length
// the (checksum-protected) header declares — into small if the frame
// fits, else into a buffer from grow, also returned as grown — which the
// returned payload aliases. Any decode failure is returned as an error —
// the caller treats the connection as dead and the retry path recovers.
func readFrame(br *bufio.Reader, small []byte, grow func(n int) []byte) (seq uint32, payload, grown []byte, err error) {
	hdr, err := br.Peek(FrameOverhead)
	if err != nil {
		return 0, nil, nil, err
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return 0, nil, nil, fmt.Errorf("%w: bad magic on stream", ErrBadFrame)
	}
	plen := binary.LittleEndian.Uint32(hdr[8:])
	if plen > 1<<30 {
		return 0, nil, nil, fmt.Errorf("%w: implausible payload length %d", ErrBadFrame, plen)
	}
	n := FrameOverhead + int(plen)
	if n > len(small) {
		grown = grow(n)
		small = grown
	}
	if _, err := io.ReadFull(br, small[:n]); err != nil {
		return 0, nil, grown, err
	}
	seq, payload, err = DecodeFrame(small[:n])
	return seq, payload, grown, err
}

// newFrame is readFrame's grow for callers that keep no buffers.
func newFrame(n int) []byte { return make([]byte, n) }

// writeFrame frames and writes one record. Safe for use from the
// receiver path (acks); senders go through tcpPeer so retries reuse
// the already-encoded frame.
func writeFrame(w io.Writer, seq uint32, body []byte) error {
	_, err := w.Write(EncodeFrame(seq, body))
	return err
}
