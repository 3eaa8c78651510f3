package gluon

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
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
//	hello  [1][u32 host][u32 epoch][u32 wire]                 frame seq 0, sent once per connection
//	data   [2][u32 exchange][u32 ack][u64 sum][sync payload]  frame seq = channel seq (1-based)
//	ack    [3][u32 cumulative seq]                            frame seq 0
//
// wire is wireVersion, the layout of every record and sync payload; a
// listener drops a hello of another epoch or version, or of another
// length, at the door.
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
// Who reads a connection. No goroutine sits on an accepted connection:
// a short-lived one reads its hello and registers it as its sender's,
// and from then on whoever holds the sender's read lock reads it. That
// is GatherFrom, on the goroutine that waits: it reads from's
// connection itself, one step's deadline at a time, filing every record
// it meets in its exchange's box, until the one it wants is there. The
// sender's step loop drains the connection once per tick without
// blocking (skipping it while a gatherer holds the lock), so a host busy
// elsewhere still files and acks records within a step, and Close
// drains every connection while it lingers. A frame is read into the
// connection's buffer — one larger than the buffer into a free-list
// buffer of its own — and stays there, partly read, across a read that
// times out: a timeout never consumes part of a frame.
//
// Writes never block the caller. A record is written with one
// non-blocking write through the socket's syscall.RawConn; what the
// socket does not take goes to the peer's flusher goroutine, which
// writes it in order, and so does every record after it until the
// flusher has caught up. Only the flusher sets a write deadline (the
// stall budget). So no socket write blocks a gathering goroutine, and
// two hosts sending each other records larger than the socket buffers
// cannot deadlock: each one's flusher waits only on the other's reads,
// which its gather or its tick drain performs.
//
// A record is read into a buffer from a bounded per-transport free list
// and its payload lent to the gathering caller until its next gather
// call, when the buffer returns to the list: a warm exchange allocates
// nothing on either side.
//
// Acks ride on reverse traffic. Every data record carries, in its ack
// field, the highest seq its sender has accepted from the record's
// destination — stamped at first transmission and stale on a
// retransmission, which is harmless because acks are monotone. A
// standalone ack record is written only when nothing carried it, and
// never by a gathering goroutine (the step loop writes it):
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
// So a BSP exchange costs one write per record and, when the record is
// not in yet, one read that finds nothing and one that finds it; the
// frames a host writes on its dialed connection are exactly its hello,
// records and retransmissions.

const (
	recHello byte = 1
	recData  byte = 2
	recAck   byte = 3

	dataHeadLen = 17 // [2][u32 exchange][u32 ack][u64 sum]
	helloLen    = 13 // [1][u32 host][u32 epoch][u32 wire]
	ackLen      = 5  // [3][u32 cumulative seq]

	// wireVersion is the layout of the records above and of the sync
	// payloads every engine packs into a data record, and which links
	// each exchange of an engine's round sends a record on. Bump it with
	// any change to either, so that processes of two builds refuse each
	// other's connections instead of misreading them or waiting for a
	// record the other never sends. Version 1 is the first versioned
	// hello, with 8-byte MRBC backward records (δ only, no source index).
	// Version 2 sends MRBC's forward reduce on the proposal links after
	// round 1 and, where the topology relays the vote, the forward
	// broadcast in the idle round too (gluon.Topology.VoteLegs).
	wireVersion = 2

	// recvBufSize is a connection's read buffer: large enough that header
	// and payload of a typical record (and a few queued ones) come out of
	// one read, small enough that a mesh's worth of them does not show in
	// the resident set. Frames larger than the buffer are read straight
	// into their own slice.
	recvBufSize = 8 << 10
	// ackBufSize is the read buffer on the ack side of a dialed
	// connection, where only 21-byte standalone acks arrive.
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

// dialTimeout bounds a single (re-)dial attempt, and the wait for an
// accepted connection's hello.
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

// budget is the stall budget: DeadlineSteps steps.
func (o TCPOptions) budget() time.Duration { return time.Duration(o.DeadlineSteps) * o.StepInterval }

// TCPTransport is the multi-process Transport backend. Each process
// owns exactly one host; NewTCPTransport wires it to the rest of the
// cluster through the address list.
type TCPTransport struct {
	self  int
	hosts int
	opts  TCPOptions

	ln    net.Listener
	peers []*tcpPeer // nil at index self

	// reading[h] is sender h's read lock: whoever holds it reads h's
	// connection, in[h], and owns its reader's state.
	reading []sync.Mutex

	mu         sync.Mutex
	inSeq      []uint32                // highest accepted seq per sender
	ackOwed    []uint8                 // per sender: ackNone, ackFresh or ackStale
	closing    bool                    // Close has begun: ack every record at once
	in         []*connReader           // current accepted connection per sender
	boxes      map[uint32]*exchangeBox // keyed by the exchange field: the identifier's low 32 bits
	freeBoxes  []*exchangeBox          // fully consumed boxes, reset for reuse
	recv       [][]byte                // free buffers to read records into
	lent       []byte                  // recv buffer behind the payload GatherFrom returned last
	sumEx      int                     // exchange gathered last, -1 before the first
	terms      []int64                 // and every host's term of it
	allReduces int                     // AllReduce calls so far: call r is exchange −r

	ticker      *time.Ticker  // one StepInterval clock for every wait that reads no socket
	connUp      chan struct{} // nudged when a hello registers a sender's connection
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
		reading:     make([]sync.Mutex, hosts),
		inSeq:       make([]uint32, hosts),
		ackOwed:     make([]uint8, hosts),
		in:          make([]*connReader, hosts),
		boxes:       make(map[uint32]*exchangeBox),
		sumEx:       -1,
		terms:       make([]int64, hosts),
		connUp:      make(chan struct{}, 1),
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
// for reuse immediately. Delivery is asynchronous and Send never waits
// on the socket; loss is detected and reported by the eventual Gather
// or a later Send's queue check.
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
// early peers while late peers' bytes are still in flight. It reads
// from's connection itself (await). The payload is on loan until the
// next gather call; the exchange's box is released once every remote
// sender was taken.
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
		select {
		case <-t.closed:
			return nil, &TransportError{Host: from, Exchange: exchange, Steps: steps, Reason: "transport closed"}
		default:
		}
		if t.await(exchange, from) {
			steps = 0
		} else {
			steps++
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

// arrived reports whether from's record for the exchange is in its box.
func (t *TCPTransport) arrived(exchange, from int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	box := t.boxes[uint32(exchange)]
	return box != nil && box.got[from]
}

// await waits up to one step for from's record of the exchange, reading
// from's connection under its read lock, and reports progress: some
// bytes read off it — a frame longer than a step's worth of wire time
// is progress too —, or the connection just registered. A sender whose
// connection is not up yet is waited for on the shared ticker, and read
// as soon as its hello registers it.
//
// Setting a read deadline resets a runtime timer, which a wait whose
// record is already in costs for nothing: a deadline set by an earlier
// wait and still at least half a step away is reused, and only a read it
// cuts short sets the step's own end, so a step without progress still
// lasts StepInterval.
func (t *TCPTransport) await(exchange, from int) (progress bool) {
	lock := &t.reading[from]
	lock.Lock()
	defer lock.Unlock()
	t.mu.Lock()
	c := t.in[from]
	t.mu.Unlock()
	// A drain may have filed the record while this waited for the lock.
	if t.arrived(exchange, from) {
		return true
	}
	for c == nil {
		// Not registered yet: wait out the step for from's hello (a
		// registration of any sender nudges connUp).
		select {
		case <-t.connUp:
		case <-t.ticker.C:
			return false
		case <-t.closed:
			return false
		}
		t.mu.Lock()
		c = t.in[from]
		t.mu.Unlock()
		progress = c != nil
	}
	step := t.opts.StepInterval
	end := time.Now().Add(step)
	if early := end.Sub(c.deadline); early < 0 || early > step/2 {
		c.until(end)
	}
	partial := c.partial()
	for {
		seq, body, frame, err := c.next(t.grow, true)
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				// A dead connection: the sender re-dials and retransmits.
				t.dropIn(from, c)
			} else if c.deadline.Before(end) {
				c.until(end)
				continue
			}
			return progress || c.partial() != partial
		}
		t.receive(from, seq, body, frame)
		progress = true
		if t.arrived(exchange, from) {
			return true
		}
	}
}

// drain files every whole record from's connection holds without
// blocking, unless another goroutine holds the read lock — it is reading
// the connection already.
func (t *TCPTransport) drain(from int) {
	lock := &t.reading[from]
	if !lock.TryLock() {
		return
	}
	defer lock.Unlock()
	t.mu.Lock()
	c := t.in[from]
	t.mu.Unlock()
	if c == nil {
		return
	}
	for {
		seq, body, frame, err := c.next(t.grow, false)
		if err != nil {
			if err != errWouldBlock {
				t.dropIn(from, c)
			}
			return
		}
		t.receive(from, seq, body, frame)
	}
}

// receive hands a frame read off from's connection to receiveRecord,
// and its free-list buffer back to the list unless a box kept it.
func (t *TCPTransport) receive(from int, seq uint32, body, frame []byte) {
	kept := len(body) > 0 && t.receiveRecord(from, seq, body, frame)
	if frame != nil && !kept {
		t.mu.Lock()
		keepFrame(&t.recv, maxFreeFrames*(t.hosts-1), frame)
		t.mu.Unlock()
	}
}

// grow returns an n-byte buffer from the receive free list, for a frame
// that does not fit a connection's read buffer.
func (t *TCPTransport) grow(n int) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return takeFrame(&t.recv, n)
}

// dropIn closes c, from's connection until it failed; the sender re-dials.
func (t *TCPTransport) dropIn(from int, c *connReader) {
	c.conn.Close()
	t.mu.Lock()
	if t.in[from] == c {
		t.in[from] = nil
	}
	t.mu.Unlock()
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
// the step, flusher and ack-reader goroutines. In-flight Gather/AllReduce
// calls return a structured transport-closed error. Before tearing down,
// Close files what every connection holds and sends every peer a
// standalone ack — no later record will carry what it owes, and the
// peers answer with what they owe — and lingers (bounded by the stall
// budget) until every outbound record has been acked, draining the
// connections meanwhile: hosts finish the final exchange at different
// times, and a fast host quitting immediately would strip the
// retransmission machinery out from under a last frame the network
// dropped — turning a recoverable loss into a peer's stall. Peers
// already in permanent error are not waited for, and a transport whose
// own wait already hit the stall deadline does not linger at all: its
// run has failed, and the records still unacked are the ones the dead
// peer never will.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		t.mu.Lock()
		t.closing = true
		t.mu.Unlock()
		// File what each connection holds, then ack it, owed or not: a
		// standalone ack is answered in kind (readAcks), which brings this
		// side's last acks in without waiting for the peers' next tick.
		for h := range t.peers {
			if h != t.self {
				t.drain(h)
				t.writeAck(h, ackNone)
			}
		}
		if !t.stalled.Load() {
			t.linger()
		}
		t.mu.Lock()
		close(t.closed)
		t.mu.Unlock()
		t.ticker.Stop()
		t.ln.Close()
		for _, p := range t.peers {
			if p != nil {
				p.close()
			}
		}
		t.mu.Lock()
		for h, c := range t.in {
			if c != nil {
				c.conn.Close()
				t.in[h] = nil
			}
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
	return nil
}

// linger blocks until every peer's unacked queue is empty or in
// permanent error, or one stall budget elapses. It wakes on ack
// progress rather than polling, and drains every connection once a
// step; the step loops are still running, so stale queues keep being
// retransmitted meanwhile.
func (t *TCPTransport) linger() {
	budget := time.NewTimer(t.opts.budget())
	defer budget.Stop()
	for t.outboundPending() {
		select {
		case <-t.ackProgress:
		case <-t.ticker.C:
			for h := range t.peers {
				if h != t.self {
					t.drain(h)
				}
			}
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
// live peer never qualifies, gathering or not: its tick drain files
// the records and its tick flush acks them within two steps.
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
// goroutine that reads its hello and registers it (admit).
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
		go t.admit(conn)
	}
}

// admit reads an accepted connection's hello and registers the
// connection as its sender's, replacing (and closing) the one before.
// The first frame must be the hello identifying the dialing host:
// [recHello][u32 host][u32 epoch][u32 wire]. A dialer from another
// membership epoch — a killed host's socket still retransmitting, or a
// survivor not yet rolled over — or of another wire version — a process
// of another build — is dropped at the door, and so is one that sends no
// hello within dialTimeout. Records that follow the hello in the same
// read stay in the connection's buffer for its readers.
func (t *TCPTransport) admit(conn net.Conn) {
	defer t.wg.Done()
	c := newConnReader(conn, recvBufSize)
	c.until(time.Now().Add(dialTimeout))
	_, body, _, err := c.next(nil, true)
	from, epoch, wire, ok := parseHello(body)
	if err != nil || !ok || from < 0 || from >= t.hosts || from == t.self ||
		epoch != t.opts.Epoch || wire != wireVersion {
		conn.Close()
		return
	}
	t.mu.Lock()
	select {
	case <-t.closed:
		t.mu.Unlock()
		conn.Close()
		return
	default:
	}
	old := t.in[from]
	t.in[from] = c
	t.mu.Unlock()
	if old != nil {
		old.conn.Close()
	}
	nudge(t.connUp)
}

// helloRecord is the record a dialer writes first on a connection:
// [recHello][u32 host][u32 epoch][u32 wire].
func helloRecord(host, epoch int) []byte {
	hello := make([]byte, helloLen)
	hello[0] = recHello
	binary.LittleEndian.PutUint32(hello[1:], uint32(host))
	binary.LittleEndian.PutUint32(hello[5:], uint32(epoch))
	binary.LittleEndian.PutUint32(hello[9:], wireVersion)
	return hello
}

// parseHello reads a hello record body as helloRecord lays it out; ok
// is false for any other record or length.
func parseHello(body []byte) (host, epoch int, wire uint32, ok bool) {
	if len(body) != helloLen || body[0] != recHello {
		return 0, 0, 0, false
	}
	return int(binary.LittleEndian.Uint32(body[1:])), int(binary.LittleEndian.Uint32(body[5:])),
		binary.LittleEndian.Uint32(body[9:]), true
}

// HelloHost returns the dialing host a connection's first frame names,
// or -1 if the frame is not an intact hello. It judges neither epoch
// nor wire version; the listener does.
func HelloHost(frame []byte) int {
	_, body, err := DecodeFrame(frame)
	if err != nil {
		return -1
	}
	host, _, _, ok := parseHello(body)
	if !ok {
		return -1
	}
	return host
}

// receiveRecord hands the record's piggybacked ack to the sender's
// peer, runs the cumulative-seq dedup filter and dispatches an accepted
// record. The ack a fresh record earns is left for the next outbound
// record (or the tick flush) to carry; a duplicate or out-of-order one
// — and, once Close has begun, every one — is re-acked at once by the
// sender's step loop, so a sender that missed an ack still converges and
// the goroutine reading never writes. frame is the free-list buffer body
// sits in, if any; kept reports that a box took it over, as a malformed
// or unexpected record's is not. Anything but a data record with a whole
// header is neither accepted nor acked.
func (t *TCPTransport) receiveRecord(from int, seq uint32, body, frame []byte) (kept bool) {
	if body[0] != recData || len(body) < dataHeadLen {
		return false
	}
	p := t.peers[from]
	p.ackTo(binary.LittleEndian.Uint32(body[5:]))
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
	if ackNow {
		nudge(p.ackDue)
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
// return channel. Only the step loop, the ack reader and Close write
// them, never a gathering goroutine.
func (t *TCPTransport) writeAck(h int, minAge uint8) {
	t.mu.Lock()
	c := t.in[h]
	if t.ackOwed[h] < minAge || c == nil {
		t.mu.Unlock()
		return
	}
	ack := t.takeAckLocked(h)
	t.stats[t.self*t.hosts+h].Control++
	t.mu.Unlock()
	// A failed write is a dead connection: the peer re-dials,
	// retransmits, and the duplicate is re-acked.
	_ = writeFrame(c.conn, 0, []byte{recAck, byte(ack), byte(ack >> 8), byte(ack >> 16), byte(ack >> 24)})
}

// dispatchLocked files a fresh data record in its exchange's box.
func (t *TCPTransport) dispatchLocked(from int, body, frame []byte) (kept bool) {
	box := t.boxLocked(int(binary.LittleEndian.Uint32(body[1:])))
	if box.got[from] {
		return false
	}
	if len(body) > dataHeadLen && frame == nil {
		// A payload short enough to have been read into the connection's
		// buffer, which the next record overwrites.
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
// dialed connection, the unacked queue, the flusher that writes what the
// socket did not take at once, and the step loop that drains the peer's
// inbound connection, flushes the acks owed to the peer, retransmits,
// re-dials, and declares it dead after the stall deadline.
type tcpPeer struct {
	t    *TCPTransport
	host int
	addr string

	// ackIn is the highest cumulative ack the peer has sent, by either
	// route. Readers only raise it; whoever next holds mu trims the
	// queue to it (trimLocked). The receive path therefore never waits
	// on mu, which a re-dial holds for up to dialTimeout.
	ackIn atomic.Uint32

	mu         sync.Mutex
	conn       net.Conn
	raw        syscall.RawConn // conn's, for the non-blocking write
	seq        uint32          // last assigned channel seq
	acked      uint32          // ackIn as of the last trim
	unacked    []tcpRecord
	free       [][]byte // acked frame buffers for reuse
	backlog    []byte   // bytes for conn the socket did not take, in order
	flushing   bool     // the flusher owns conn's next bytes: backlog is non-empty or being written
	idleSteps  int      // steps without ack progress since the last (re)transmission
	waitSteps  int      // steps without ack progress
	retries    int64
	retryBytes int64
	redials    int64
	everConn   bool
	err        *TransportError

	// The non-blocking write's operands, set around each raw.Write call;
	// probe is bound once, so the call allocates nothing.
	src   []byte
	wrote int
	werr  error
	probe func(fd uintptr) bool

	kick   chan struct{} // the backlog has bytes for the flusher
	ackDue chan struct{} // a received record wants its ack now
	closed chan struct{}
	once   sync.Once
}

type tcpRecord struct {
	seq   uint32
	frame []byte
}

func newTCPPeer(t *TCPTransport, host int, addr string) *tcpPeer {
	p := &tcpPeer{t: t, host: host, addr: addr, kick: make(chan struct{}, 1),
		ackDue: make(chan struct{}, 1), closed: make(chan struct{})}
	p.probe = p.writeNow
	t.wg.Add(2)
	go p.stepLoop()
	go p.flushLoop()
	return p
}

// enqueue frames head∥payload as the channel's next record, appends it
// to the unacked queue, and transmits it without blocking (sendLocked).
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
		p.sendLocked(frame)
	}
	return nil
}

// sendLocked puts frame on the connection without blocking: one
// non-blocking write, and whatever the socket does not take is copied to
// the backlog for the flusher — as is all of frame while the flusher
// owns the connection, so bytes reach the socket in order.
func (p *tcpPeer) sendLocked(frame []byte) {
	if !p.flushing {
		p.src = frame
		err := p.raw.Write(p.probe)
		n, werr := p.wrote, p.werr
		p.src, p.werr = nil, nil
		if err == nil {
			err = werr
		}
		if err != nil {
			p.dropConnLocked()
			return
		}
		if frame = frame[n:]; len(frame) == 0 {
			return
		}
		p.flushing = true
		nudge(p.kick)
	}
	p.backlog = append(p.backlog, frame...)
}

// writeNow is the non-blocking write: as much of p.src as the socket
// takes now. It always returns true, so RawConn.Write never waits.
func (p *tcpPeer) writeNow(fd uintptr) bool {
	p.wrote = 0
	for p.wrote < len(p.src) {
		n, err := syscall.Write(int(fd), p.src[p.wrote:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			if err != syscall.EAGAIN {
				p.werr = err
			}
			break
		}
		p.wrote += n
	}
	return true
}

// flushLoop writes the backlog in order, blocking, with the stall budget
// as its write deadline; a write that fails or times out drops the
// connection, and the step loop re-dials and retransmits.
func (p *tcpPeer) flushLoop() {
	defer p.t.wg.Done()
	var out []byte
	for {
		select {
		case <-p.closed:
			return
		case <-p.kick:
		}
		p.mu.Lock()
		for len(p.backlog) > 0 && p.conn != nil {
			conn := p.conn
			out, p.backlog = p.backlog, out[:0]
			p.mu.Unlock()
			conn.SetWriteDeadline(time.Now().Add(p.t.opts.budget()))
			_, err := conn.Write(out)
			conn.SetWriteDeadline(time.Time{})
			if cap(out) > maxPooledFrame {
				out = nil
			}
			p.mu.Lock()
			if err != nil && p.conn == conn {
				p.dropConnLocked()
			}
		}
		p.flushing = false
		p.mu.Unlock()
	}
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

// stepLoop is the reliability clock: every StepInterval it drains the
// peer's inbound connection, flushes an ack nothing carried, checks ack
// progress, retransmits a stale queue, re-dials a dead connection, and
// converts DeadlineSteps of no progress into a permanent peer error.
// Between ticks it writes the acks a received record wants at once.
func (p *tcpPeer) stepLoop() {
	defer p.t.wg.Done()
	ticker := time.NewTicker(p.t.opts.StepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.closed:
			return
		case <-p.ackDue:
			p.t.writeAck(p.host, ackNone)
			continue
		case <-ticker.C:
		}
		p.t.drain(p.host)
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
			continue
		}
		// A queue the flusher is still writing is on its way already.
		if p.idleSteps >= p.t.opts.RetrySteps && !p.flushing {
			p.idleSteps = 0
			if p.ensureConnLocked() {
				for _, rec := range p.unacked {
					p.retries++
					p.retryBytes += int64(len(rec.frame))
					if p.sendLocked(rec.frame); p.conn == nil {
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
	raw, err := conn.(syscall.Conn).SyscallConn()
	if err != nil {
		conn.Close()
		return false
	}
	// A fresh socket's buffer takes the hello whole.
	if err := writeFrame(conn, 0, helloRecord(p.t.self, p.t.opts.Epoch)); err != nil {
		conn.Close()
		return false
	}
	p.conn, p.raw = conn, raw
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

// dropConnLocked closes the dialed connection and discards its backlog:
// the bytes were for that stream, and the unacked queue is retransmitted
// on the next one.
func (p *tcpPeer) dropConnLocked() {
	if p.conn != nil {
		p.conn.Close()
		p.conn, p.raw = nil, nil
	}
	p.backlog = p.backlog[:0]
	p.flushing = false
}

// readAcks consumes standalone cumulative acks from the dialed
// connection. Exits when the connection dies; the step loop re-dials.
func (p *tcpPeer) readAcks(conn net.Conn) {
	defer p.t.wg.Done()
	c := newConnReader(conn, ackBufSize)
	for {
		_, body, _, err := c.next(nil, true)
		if err != nil {
			p.mu.Lock()
			if p.conn == conn {
				p.dropConnLocked()
			}
			p.mu.Unlock()
			return
		}
		if len(body) != ackLen || body[0] != recAck {
			continue
		}
		p.ackTo(binary.LittleEndian.Uint32(body[1:]))
		// A peer acking standalone has nothing on its way here for an
		// ack to come back on, and may be waiting in Close for ours —
		// for records this host may not have read yet.
		p.t.drain(p.host)
		p.t.writeAck(p.host, ackFresh)
	}
}

func (p *tcpPeer) close() {
	p.once.Do(func() { close(p.closed) })
	p.mu.Lock()
	p.dropConnLocked()
	p.mu.Unlock()
}

// connReader is one connection and the frame being read off it: an
// accepted one, which once registered only the holder of its sender's
// read lock touches, or the ack side of a dialed one. Reads block until
// the deadline until set, or not at all; either way an incomplete frame
// stays where it is, in buf or big, for the next read to finish.
type connReader struct {
	conn net.Conn
	raw  syscall.RawConn // for the non-blocking read; nil if conn has none
	buf  []byte          // buf[r:w] is read and not yet parsed
	r, w int
	big  []byte // a frame longer than buf, filled up to bigN
	bigN int

	deadline time.Time // the read deadline set, zero for none; a non-blocking read clears it

	// The non-blocking read's operands, set around each raw.Read call;
	// probe is bound once, so the call allocates nothing.
	dst   []byte
	got   int
	rerr  error
	probe func(fd uintptr) bool
}

// errWouldBlock is a non-blocking read's answer when no whole frame is
// in yet.
var errWouldBlock = errors.New("gluon: no whole frame buffered")

func newConnReader(conn net.Conn, bufSize int) *connReader {
	c := &connReader{conn: conn, buf: make([]byte, bufSize)}
	if sc, ok := conn.(syscall.Conn); ok {
		c.raw, _ = sc.SyscallConn()
	}
	c.probe = c.readNow
	return c
}

// partial is how many bytes of frames not yet returned are read.
func (c *connReader) partial() int { return c.w - c.r + c.bigN }

// until makes the blocking reads give up at d.
func (c *connReader) until(d time.Time) {
	c.conn.SetReadDeadline(d)
	c.deadline = d
}

// next returns the connection's next frame: its seq and body, and the
// free-list buffer from grow it was read into if it did not fit buf
// (grow nil refuses such a frame). A body in buf is valid until the next
// call. Any decode failure is returned as an error — the caller treats
// the connection as dead and the retry path recovers — and so is a
// blocking read's timeout, or errWouldBlock, which leave the partial
// frame in place.
func (c *connReader) next(grow func(n int) []byte, block bool) (seq uint32, body, frame []byte, err error) {
	for {
		if c.big != nil {
			if c.bigN == len(c.big) {
				frame, c.big, c.bigN = c.big, nil, 0
				seq, body, err = DecodeFrame(frame)
				return seq, body, frame, err
			}
			n, err := c.read(c.big[c.bigN:], block)
			c.bigN += n
			if err != nil {
				return 0, nil, nil, err
			}
			continue
		}
		if c.w-c.r >= FrameOverhead {
			hdr := c.buf[c.r:c.w]
			n, err := frameLen(hdr)
			if err != nil {
				return 0, nil, nil, err
			}
			if n <= len(hdr) {
				c.r += n
				seq, body, err = DecodeFrame(hdr[:n])
				return seq, body, nil, err
			}
			if n > len(c.buf) {
				if grow == nil {
					return 0, nil, nil, fmt.Errorf("%w: %d-byte frame where a short one belongs", ErrBadFrame, n)
				}
				c.big = grow(n)
				c.bigN = copy(c.big, hdr)
				c.r, c.w = 0, 0
				continue
			}
		}
		if c.r > 0 {
			c.w = copy(c.buf, c.buf[c.r:c.w])
			c.r = 0
		}
		n, err := c.read(c.buf[c.w:], block)
		c.w += n
		if err != nil {
			return 0, nil, nil, err
		}
	}
}

// read reads into p: blocking until the deadline, or taking only what
// the socket holds now (errWouldBlock: nothing).
func (c *connReader) read(p []byte, block bool) (int, error) {
	if block {
		return c.conn.Read(p)
	}
	if c.raw == nil {
		return 0, errWouldBlock
	}
	if !c.deadline.IsZero() {
		// RawConn.Read fails at once on an expired deadline.
		c.conn.SetReadDeadline(time.Time{})
		c.deadline = time.Time{}
	}
	c.dst = p
	err := c.raw.Read(c.probe)
	n, rerr := c.got, c.rerr
	c.dst, c.rerr = nil, nil
	switch {
	case err != nil:
		return 0, err
	case rerr == syscall.EAGAIN:
		return 0, errWouldBlock
	case rerr != nil:
		return 0, rerr
	case n == 0:
		return 0, io.EOF
	}
	return n, nil
}

// readNow is the non-blocking read. It always returns true, so
// RawConn.Read never waits.
func (c *connReader) readNow(fd uintptr) bool {
	for {
		n, err := syscall.Read(int(fd), c.dst)
		if err == syscall.EINTR {
			continue
		}
		c.got, c.rerr = max(n, 0), err
		return true
	}
}

// ReadFrame reads one frame off a buffered stream and returns its bytes
// exactly as they arrived, in a buffer of its own, after checking the
// header and checksum: what a relay needs to forward frames unchanged.
func ReadFrame(br *bufio.Reader) ([]byte, error) {
	hdr, err := br.Peek(FrameOverhead)
	if err != nil {
		return nil, err
	}
	n, err := frameLen(hdr)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(br, frame); err != nil {
		return nil, err
	}
	if _, _, err := DecodeFrame(frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// writeFrame frames and writes one record. For the hello and standalone
// acks; records go through tcpPeer so retries reuse the encoded frame.
func writeFrame(w io.Writer, seq uint32, body []byte) error {
	_, err := w.Write(EncodeFrame(seq, body))
	return err
}
