// Package dgalois provides the bulk-synchronous distributed execution
// substrate modeled on D-Galois (§4.1): a set of hosts, each owning a
// partition of the graph, executing BSP rounds of local computation
// followed by proxy synchronization.
//
// Hosts are simulated as goroutines within one process — the
// substitution DESIGN.md §3 documents for the paper's 256-host
// Stampede2 cluster. What the paper measures are model-level
// quantities the substrate tracks exactly:
//
//   - BSP rounds executed,
//   - communication volume in bytes and the number of inter-host
//     messages (buffers are genuinely serialized and deserialized, so
//     (de)serialization cost is paid, as §5.3 discusses),
//   - per-host computation time, whose max/mean ratio per round gives
//     the load-imbalance estimate of Table 1,
//   - non-overlapped communication wall time (exchange phases).
//
// The cluster owns its round counter and volume; every exchange tallies
// each directed link once, and Stats, the checkpoint Cursor, the trace's
// pack, unpack and link events, and the registry behind /metrics
// (ClusterOptions.Metrics, mirrored once per exchange) all fold from
// those link tallies. With ClusterOptions.Trace set, the cluster
// additionally emits one obs event per (round, host, phase) — compute,
// barrier, pack, exchange, unpack, plus one transport event per exchange
// over a remote transport. A nil trace costs a single predictable branch
// per phase: the steady-state Exchange stays allocation-free either way.
//
// Every phase is allocation-free at steady state: an exchange ticket
// keeps one reusable gluon.Writer per ordered host pair, the cluster one
// gluon.Decoder per receiving host, and one persistent worker pool runs
// the hosts of a compute phase, the pack work parallel over (from, to)
// pairs — finer-grained than one goroutine per sender, which matters
// when one sender's pack work dwarfs the others' — and the receivers of
// an unpack, without spawning a goroutine per phase — unless the phase
// is too small to pay for waking the pool, and runs on the caller
// (dispatch).
package dgalois

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mrbc/internal/gluon"
	"mrbc/internal/obs"
)

// Cluster coordinates BSP execution across simulated hosts and records
// execution statistics.
type Cluster struct {
	hosts int
	epoch time.Time // trace timestamps are monotonic offsets from here

	// The paper-model counts: BSP rounds begun, and the volume every
	// exchange's sent links settled into (settle). Stats, Cursor, round
	// numbers and Restore read and write these, coordinator-serial.
	rounds int64
	vol    tally

	// The registry mirror (ClusterOptions.Metrics; detached instruments
	// when nil), resolved once at construction. settle publishes an
	// exchange's volume once; a registry shared across clusters (a bcd
	// daemon's -metrics registry serves every job it runs) stays
	// cumulative.
	roundsC     *obs.Counter
	bytesC      *obs.Counter
	messagesC   *obs.Counter
	encDenseC   *obs.Counter
	encSparseC  *obs.Counter
	encAllC     *obs.Counter
	encBDenseC  *obs.Counter // per-format payload bytes (gluon plumb-through)
	encBSparseC *obs.Counter
	encBAllC    *obs.Counter
	computeHist *obs.Histogram
	commHist    *obs.Histogram

	// Live progress instruments for the telemetry endpoint
	// (internal/obs/serve /progressz): the current BSP round, each
	// host's last-completed compute round (set the moment the host's
	// compute function returns, so a scrape mid-round sees stragglers
	// as a lag between the vector entries), and per-host communication
	// volume. All are resolved to plain atomics here, so the hot path
	// cost is one store/add each — the Exchange zero-alloc pin covers
	// the enabled path.
	roundG     *obs.Gauge
	hostRoundG []*obs.Gauge
	hostBytesC []*obs.Counter
	hostMsgsC  []*obs.Counter
	hostAliveG []*obs.Gauge // 1 while the host is believed alive, 0 once dead

	commWall       time.Duration
	hiddenWall     time.Duration // exchange wait hidden behind detached compute
	perHostCompute []time.Duration
	durations      []time.Duration // the current compute phase's per-host times
	starts         []time.Duration // and their start offsets
	imbalanceSum   float64
	imbalanceN     int

	// Tracing state. trace == nil is the disabled path: every emission
	// site is behind one branch. seq is the coordinator-assigned phase
	// counter — serial, hence deterministic across worker counts.
	trace *obs.Trace
	seq   int64

	// Exchange tickets, as many as were ever open at once (claimTicket).
	// Each owns a full writer matrix and its own link tallies, so a
	// detached exchange's buffers survive until its Complete while later
	// exchanges pack into their own. cur is the ticket whose pack or
	// unpack phase is running.
	tickets []*PendingExchange
	cur     *PendingExchange

	// Reusable communication state. Decoders own the per-receiver parse
	// scratch; they are shared across tickets because unpack phases of
	// distinct exchanges never run concurrently (Begin/Complete are
	// coordinator-serial).
	decoders []*gluon.Decoder

	// transport moves the packed buffers between processes; nil in
	// process. It puts the cluster in SPMD mode: this process runs exactly
	// one host (localHost ≥ 0), Compute/pack/unpack touch only that host,
	// inline on the calling goroutine, and cross-process control
	// decisions ride an exchange (Sync.Vote).
	transport gluon.Transport
	localHost int // the single local host in SPMD mode; -1 when all hosts are local
	lastNet   gluon.ChannelStats

	// exchanges numbers the exchanges begun, 0,1,2,…: every SPMD process
	// issues the same operation sequence, pipelined or not, so the count
	// names the same exchange in every process. eventBatch tags emitted
	// phase/transport events with the batch that holds the turn (SetBatch);
	// 0 outside a pipelined run, so non-pipelined traces are unchanged.
	exchanges  int
	eventBatch int32

	// xerr carries a transport failure out of the pool workers to the
	// coordinator, which converts it into an abortPanic at the exchange
	// boundary (pool tasks must not panic — they run on detached
	// goroutines).
	xmu  sync.Mutex
	xerr *FaultError

	// Persistent workers (nil in SPMD mode, whose phases run on the
	// caller) and the per-phase state they read. The bound task funcs are
	// created once so dispatching a phase allocates nothing.
	pool          *workerPool
	computeFn     func(host int)
	computeRound  int64
	packFn        func(from, to int, w *gluon.Writer)
	unpackFn      func(to, from int, data []byte, dec *gluon.Decoder)
	computeTaskFn func(i int)
	packTaskFn    func(i int)
	unpackTaskFn  func(i int)
	closeOnce     sync.Once

	// Where an in-process phase runs (dispatch). While the caller runs a
	// compute phase's hosts, lap is the clock at the end of the last one.
	costs                      []phaseCost
	onCaller                   bool
	lap                        time.Duration
	callerC, pooledC, escapedC *obs.Counter
}

// tally is the volume of one directed link of an exchange, of a host's
// side of one, or of a whole run: the non-empty buffers and their bytes,
// by sync-metadata wire format. A receiver's decoder sees the per-format
// message counts but not the bytes.
type tally struct {
	bytes    int64
	messages int64
	enc      gluon.EncodingCounts
	encBytes gluon.ByteCounts
}

func (t *tally) add(o *tally) {
	t.bytes += o.bytes
	t.messages += o.messages
	t.enc.Add(o.enc)
	t.encBytes.Add(o.encBytes)
}

// sumLinks folds n link tallies of links, stride apart from first: a
// sender's row (stride 1) or a receiver's column (stride hosts).
func sumLinks(links []tally, first, stride, n int) (s tally) {
	for k := 0; k < n; k++ {
		s.add(&links[first+k*stride])
	}
	return s
}

// PendingExchange is one exchange's in-flight state: the ticket
// BeginSync returns and Complete consumes. A ticket is made the first
// time every existing one is open and recycled from then on, so the
// pipelined exchange path allocates nothing at steady state. All
// BeginSync/Complete calls must come from the cluster's coordinating
// goroutine (or be externally serialized, as the pipelined batch
// turnstile does) — the Cluster is not a thread-safe object.
type PendingExchange struct {
	c         *Cluster
	inUse     bool
	detached  bool         // true between BeginSync and Complete
	links     *gluon.Links // the links that carry a record and its term; nil, every one
	empty     bool         // in-process, and no pack produced a buffer: nothing to unpack
	sum       int64        // the caller's term, and once complete every host's (Sum)
	ex        int
	packSeq   int64
	unpackSeq int64
	round     int64
	batch     int32
	// start and packEnd bracket the pack phase, as offsets from the
	// cluster's epoch (Cluster.now).
	start   time.Duration
	packEnd time.Duration
	// writers[from*hosts+to] is the exchange's buffer on a local sender's
	// link: what the transport sends, or in process what unpack reads.
	writers []gluon.Writer
	// sent and recv tally each directed (from, to) link of the exchange,
	// indexed from*hosts+to, on its sending and its receiving side. A
	// pack pair is one exclusive task and a receiver's links are touched
	// only by its serial unpack task, so neither needs atomics. settle
	// folds sent into the cluster's volume; the trace's pack and unpack
	// events are sent's rows and recv's columns, its link events the
	// cells the cross-host conservation checker matches.
	sent   []tally
	recv   []tally
	unpack func(to, from int, data []byte, dec *gluon.Decoder)
}

// Sum returns the sum an exchange begun with BeginSync carried (see
// Cluster.Sync): valid after Complete, until the cluster's next exchange.
func (p *PendingExchange) Sum() int64 { return p.sum }

// Complete finishes a detached exchange: it blocks until every peer's
// buffer arrived (remote backends), runs the unpack phase, and folds
// the exchange's timing into the cluster statistics. The wait that
// elapsed between BeginSync's return and this call was hidden
// behind the caller's compute and is tallied as such. Calling Complete
// more than once is a no-op.
func (p *PendingExchange) Complete() {
	if p == nil || !p.inUse {
		return
	}
	p.c.complete(p)
}

// ClusterOptions configures a cluster beyond its host count. The zero
// value reproduces NewCluster exactly.
type ClusterOptions struct {
	// Trace receives one event per (round, host, phase) plus transport
	// events; nil disables tracing at zero cost.
	Trace *obs.Trace
	// Metrics is the registry the cluster mirrors its counts and progress
	// into, for a caller that serves or reads them; nil publishes no
	// telemetry. Stats never reads it.
	Metrics *obs.Registry
	// Transport moves the buffers between processes. Nil runs every host
	// in this process over a perfect network: a receiver reads its
	// senders' buffers where they were packed. A transport
	// (gluon.TCPTransport) must own exactly one local host and puts the
	// cluster in SPMD mode: every process of the job runs the same engine
	// loop for its own host, and the cluster only computes, packs, and
	// unpacks for the local one. TCP is the only backend that retries,
	// and so the only one faults are injected into (clusterrun.FaultProxy
	// in front of its listeners).
	Transport gluon.Transport
	// Epoch is the membership epoch this cluster runs under (elastic
	// recovery bumps it per restart attempt); published as the
	// dgalois_epoch gauge so /progressz can surface it.
	Epoch int
}

// NewCluster creates a cluster of the given number of hosts with a
// perfect in-process network.
func NewCluster(hosts int) *Cluster {
	return NewClusterOpts(hosts, ClusterOptions{})
}

// NewClusterOpts creates a cluster with explicit options.
func NewClusterOpts(hosts int, opts ClusterOptions) *Cluster {
	if hosts <= 0 {
		panic(fmt.Sprintf("dgalois: invalid host count %d", hosts))
	}
	c := &Cluster{
		hosts:          hosts,
		epoch:          time.Now(),
		perHostCompute: make([]time.Duration, hosts),
		durations:      make([]time.Duration, hosts),
		starts:         make([]time.Duration, hosts),
		trace:          opts.Trace,
	}
	m := opts.Metrics
	c.roundsC = m.Counter("dgalois_rounds_total")
	c.bytesC = m.Counter("dgalois_bytes_total")
	c.messagesC = m.Counter("dgalois_messages_total")
	c.encDenseC = m.Counter("dgalois_messages_dense_total")
	c.encSparseC = m.Counter("dgalois_messages_sparse_total")
	c.encAllC = m.Counter("dgalois_messages_all_total")
	c.encBDenseC = m.Counter("dgalois_bytes_dense_total")
	c.encBSparseC = m.Counter("dgalois_bytes_sparse_total")
	c.encBAllC = m.Counter("dgalois_bytes_all_total")
	c.computeHist = m.Histogram("dgalois_compute_phase_seconds", obs.DurationBuckets)
	c.commHist = m.Histogram("dgalois_exchange_seconds", obs.DurationBuckets)
	c.callerC = m.Counter("dgalois_phases_caller_total")
	c.pooledC = m.Counter("dgalois_phases_pooled_total")
	c.escapedC = m.Counter("dgalois_phases_escaped_total")
	m.Gauge("dgalois_hosts").Set(int64(hosts))
	c.roundG = m.Gauge("dgalois_round")
	c.roundG.Set(0)
	m.Gauge("dgalois_epoch").Set(int64(opts.Epoch))
	hostRoundV := m.GaugeVec("dgalois_host_last_round", "host", hosts)
	hostBytesV := m.CounterVec("dgalois_host_bytes_total", "host", hosts)
	hostMsgsV := m.CounterVec("dgalois_host_messages_total", "host", hosts)
	hostAliveV := m.GaugeVec("dgalois_host_alive", "host", hosts)
	c.hostRoundG = make([]*obs.Gauge, hosts)
	c.hostBytesC = make([]*obs.Counter, hosts)
	c.hostMsgsC = make([]*obs.Counter, hosts)
	c.hostAliveG = make([]*obs.Gauge, hosts)
	for h := 0; h < hosts; h++ {
		c.hostRoundG[h] = hostRoundV.At(h)
		c.hostRoundG[h].Set(0)
		c.hostBytesC[h] = hostBytesV.At(h)
		c.hostMsgsC[h] = hostMsgsV.At(h)
		c.hostAliveG[h] = hostAliveV.At(h)
		c.hostAliveG[h].Set(1)
	}
	c.localHost = -1
	c.transport = opts.Transport
	if c.transport != nil {
		if c.transport.Hosts() != hosts {
			panic(fmt.Sprintf("dgalois: transport spans %d hosts, cluster has %d", c.transport.Hosts(), hosts))
		}
		nLocal := 0
		for h := 0; h < hosts; h++ {
			if c.transport.Local(h) {
				c.localHost = h
				nLocal++
			}
		}
		if nLocal != 1 {
			panic(fmt.Sprintf("dgalois: a transport must own exactly one local host, owns %d", nLocal))
		}
	}
	c.decoders = make([]*gluon.Decoder, hosts)
	for i := 0; i < hosts; i++ {
		if c.isLocal(i) {
			c.decoders[i] = gluon.NewDecoder()
		}
	}
	if c.localHost < 0 {
		// The pool runs every phase big enough to pay for waking it — the
		// hosts of a compute phase as well as the packs and unpacks of an
		// exchange — with the calling goroutine working alongside it; a
		// smaller phase runs on the caller alone. Event content is
		// independent of the pool size, which golden-trace tests sweep
		// through GOMAXPROCS.
		c.pool = newWorkerPool(max(1, min(runtime.GOMAXPROCS(0), hosts*(hosts-1))), c.epoch)
		c.computeTaskFn = c.computeTask
		c.packTaskFn = c.packTask
		c.unpackTaskFn = c.unpackTask
		// The workers hold no reference back to the cluster while idle,
		// so an abandoned cluster is collectable; the finalizer then
		// releases its worker goroutines for callers that never call
		// Close.
		runtime.SetFinalizer(c, (*Cluster).Close)
	}
	return c
}

// Close releases the cluster's worker goroutines (an SPMD cluster has
// none). Safe to call more than once; a finalizer calls it for pooled
// clusters that are simply dropped.
func (c *Cluster) Close() {
	if c.pool != nil {
		c.closeOnce.Do(func() { close(c.pool.wake) })
	}
}

// NumHosts returns the cluster size.
func (c *Cluster) NumHosts() int { return c.hosts }

// LocalHost returns the single host this process runs in SPMD mode, or
// -1 when every host is local (the in-process simulated cluster).
func (c *Cluster) LocalHost() int { return c.localHost }

// IsLocal reports whether host h's engine state lives in this process.
// Engine loops use it to skip state construction and result folding for
// remote hosts.
func (c *Cluster) IsLocal(h int) bool { return c.isLocal(h) }

// Cursor is the cluster's deterministic counter position: the phase
// sequence number and the cluster's own paper-model counts (never the
// registry mirror's, which a shared registry accumulates), as they
// stand. A checkpoint stores the cursor at a batch boundary; Restore
// seeds a fresh cluster with it so the resumed run's event numbering,
// round counter, and Stats continue the pre-restore sequence exactly —
// which is what makes resumed canonical traces byte-identical to
// uninterrupted ones.
type Cursor struct {
	Seq      int64
	Rounds   int64
	Bytes    int64
	Messages int64
	Encoding gluon.EncodingCounts
}

// Cursor returns the cluster's current counter position.
func (c *Cluster) Cursor() Cursor {
	return Cursor{Seq: c.seq, Rounds: c.rounds, Bytes: c.vol.bytes, Messages: c.vol.messages, Encoding: c.vol.enc}
}

// Restore seeds the cluster's counts from a checkpointed cursor. Must be
// called before the first phase runs; after it Stats(), trace round
// numbers, and later Cursor() calls all continue from the restored
// position with no further arithmetic by the caller. The registry
// mirror is left alone: /metrics counts only the work this process did.
func (c *Cluster) Restore(cur Cursor) {
	if c.seq != 0 || c.rounds != 0 {
		panic("dgalois: Restore must run before the cluster's first phase")
	}
	c.seq, c.rounds = cur.Seq, cur.Rounds
	c.vol = tally{bytes: cur.Bytes, messages: cur.Messages, enc: cur.Encoding}
}

func (c *Cluster) isLocal(h int) bool { return c.localHost < 0 || h == c.localHost }

// SetBatch tags subsequently emitted events with the batch; a negative
// batch untags them, the state every cluster starts in. The pipelined
// batch runner calls it whenever a batch's segment takes the turn, so
// trace events of interleaved batches stay attributable.
func (c *Cluster) SetBatch(batch int) {
	c.eventBatch = int32(max(batch, 0))
}

// nextSeq hands out the coordinator-serial phase sequence number.
func (c *Cluster) nextSeq() int64 {
	c.seq++
	return c.seq
}

// now reads the cluster's clock: the monotonic offset from its epoch,
// which is what trace timestamps are. One clock read, where time.Now
// takes two.
func (c *Cluster) now() time.Duration { return time.Since(c.epoch) }

// Compute runs fn(host) on every local host as one BSP compute phase,
// recording per-host compute time and the round's load imbalance.
// In-process the hosts run where dispatch puts them: on the worker pool,
// as many side by side as it has workers, or in host order on the caller;
// the single host of an SPMD cluster runs on the caller. fn must not wait
// for another host's fn.
func (c *Cluster) Compute(fn func(host int)) {
	seq := c.nextSeq()
	round := c.rounds
	c.computeFn, c.computeRound = fn, round
	start := c.now()
	var end time.Duration
	if h := c.localHost; h >= 0 {
		// SPMD: one local host, nothing to run it side by side with.
		c.computeTask(h)
		end = c.now()
	} else {
		end = c.dispatch(fn, c.hosts, c.computeTaskFn, start, true)
	}
	c.computeFn = nil
	c.computeHist.Observe((end - start).Seconds())

	durations := c.durations
	for h, d := range durations {
		c.perHostCompute[h] += d
	}
	// Load imbalance is max/mean over the hosts that computed this
	// round (see roundImbalance); rounds where no host computed
	// contribute no sample.
	if imb, ok := roundImbalance(durations); ok {
		c.imbalanceSum += imb
		c.imbalanceN++
	}
	if c.trace != nil {
		for h, d := range durations {
			if !c.isLocal(h) {
				continue
			}
			done := c.starts[h] + d
			c.trace.Emit(obs.Event{Kind: obs.KindPhase, Seq: seq, Round: int32(round), Batch: c.eventBatch,
				Host: int32(h), Phase: obs.PhaseCompute, StartNs: c.starts[h].Nanoseconds(), DurNs: d.Nanoseconds()})
			// The barrier slice is the host's idle wait from its own end
			// to the phase's: for the slowest host it is the join, and on
			// the caller it is the hosts after it.
			c.trace.Emit(obs.Event{Kind: obs.KindPhase, Seq: seq, Round: int32(round), Batch: c.eventBatch,
				Host: int32(h), Phase: obs.PhaseBarrier,
				StartNs: done.Nanoseconds(), DurNs: (end - done).Nanoseconds()})
		}
	}
}

// computeTask runs the current compute phase's function for host h and
// times it. On the caller the previous host's end is this host's start,
// so a phase of P hosts reads the clock P+1 times, its start included.
func (c *Cluster) computeTask(h int) {
	t0 := c.lap
	if !c.onCaller {
		t0 = c.now()
	}
	c.computeFn(h)
	end := c.now()
	c.starts[h], c.durations[h] = t0, end-t0
	if c.onCaller {
		c.lap = end
	}
	// Published before the barrier: a telemetry scrape while other hosts
	// still compute sees this host ahead, which is exactly the straggler
	// signal /progressz derives.
	c.hostRoundG[h].Set(c.computeRound)
}

// BeginRound marks the start of a BSP round (for the round counter and
// the live round gauge).
func (c *Cluster) BeginRound() {
	c.rounds++
	c.roundG.Set(c.rounds)
	c.roundsC.Inc()
}

// packTask packs one (from, to) pair into its pooled writer and tallies
// a message on the pair's sent link, which no other task touches.
func (c *Cluster) packTask(i int) {
	from, to := i/c.hosts, i%c.hosts
	t := c.cur
	// A pair outside the exchange's links has nothing to pack, and
	// without a vote to carry nothing to send: its receiver declares it
	// silent.
	if from == to || !t.links.Has(from, to) {
		return
	}
	w := &t.writers[i]
	w.Reset()
	c.packFn(from, to, w)
	buf := w.Bytes()
	// In process the buffer stays in the writer for its receiver to read.
	// A transport copies it into a reliable record; empty buffers travel
	// too, the nothing-this-exchange marker remote receivers wait for.
	if c.localHost >= 0 {
		if err := c.transport.Send(t.ex, from, to, buf); err != nil {
			c.noteTransportError(err)
			return
		}
	}
	// An empty buffer is no message, and counted no format: the writer
	// counts a format only as it writes one.
	if len(buf) == 0 {
		return
	}
	l := &t.sent[i]
	l.bytes += int64(len(buf))
	l.messages++
	l.enc.Add(w.TakeCounts())
	l.encBytes.Add(w.TakeByteCounts())
}

// unpackTask consumes every buffer addressed to host to, serially per
// receiver (receivers run in parallel with each other), in the fixed
// sender order 0..hosts-1 — the deterministic apply order. In process it
// reads each sender's writer on the exchange's links. In SPMD mode the
// transport blocks until the message arrived or the stall deadline makes
// the wait a structured error. Gathered per sender, early peers'
// deserialization overlaps late peers' wire time, and each payload is
// consumed before the next is asked for, which ends its loan. A sender
// packTask left silent is declared so: it reads as empty at once.
//
// Each delivered buffer is tallied on its received link, with the
// per-format message counts the receiver's decoder saw while the engine
// unpacked it — the receive side the cross-host conservation checker
// matches against the sender's link.
func (c *Cluster) unpackTask(to int) {
	t := c.cur
	dec := c.decoders[to]
	var err error
	for from := 0; from < c.hosts && err == nil; from++ {
		if from == to {
			continue
		}
		var buf []byte
		if c.localHost < 0 {
			if t.links.Has(from, to) {
				buf = t.writers[from*c.hosts+to].Bytes()
			}
		} else {
			if !t.links.Has(from, to) {
				err = c.transport.Silent(t.ex, to, from)
			}
			if err == nil {
				buf, err = c.transport.GatherFrom(t.ex, to, from)
			}
		}
		if len(buf) > 0 {
			c.unpackFn(to, from, buf, dec)
			l := &t.recv[from*c.hosts+to]
			l.bytes += int64(len(buf))
			l.messages++
			l.enc.Add(dec.TakeCounts())
		}
	}
	if err != nil {
		c.noteTransportError(err)
	}
}

// noteTransportError records the first transport failure of the
// current exchange; the coordinator converts it into an abortPanic
// once the phase drains (checkExchangeErr). The implicated host's
// liveness gauge drops to 0, so /progressz stops treating its frozen
// last round as straggler lag.
func (c *Cluster) noteTransportError(err error) {
	fe := faultErrorFrom(err)
	if fe.Host >= 0 && fe.Host < len(c.hostAliveG) {
		c.hostAliveG[fe.Host].Set(0)
	}
	c.xmu.Lock()
	if c.xerr == nil {
		c.xerr = fe
	}
	c.xmu.Unlock()
}

// checkExchangeErr aborts the run with the recorded transport failure,
// if any. Runs on the coordinator after the pool handshake, so the
// plain read is ordered after every task's write.
func (c *Cluster) checkExchangeErr() {
	if c.xerr != nil {
		err := c.xerr
		c.xerr = nil
		panic(abortPanic{err: err})
	}
}

// runPackPhase runs the pack loop for the current exchange, begun at
// clock start, and returns the clock at its end: pair-parallel where
// dispatch puts it in-process; the local host's hosts−1 destinations in
// order on the caller in SPMD mode.
func (c *Cluster) runPackPhase(pack func(from, to int, w *gluon.Writer), start time.Duration) (end time.Duration) {
	c.packFn = pack
	if c.localHost >= 0 {
		for to := 0; to < c.hosts; to++ {
			c.packTask(c.localHost*c.hosts + to)
		}
		end = c.now()
	} else {
		end = c.dispatch(pack, c.hosts*c.hosts, c.packTaskFn, start, false)
	}
	c.packFn = nil
	return end
}

// settle folds an exchange's sent links into the cluster's volume and
// publishes them to the registry mirror — the totals, the per-format
// counts and each sender's row — and returns how many messages the
// exchange sent. It runs once per exchange, on the coordinator after the
// pack phase; an exchange that sent nothing touches no instrument.
func (c *Cluster) settle(t *PendingExchange) int64 {
	var sent int64
	for i := range t.sent {
		sent += t.sent[i].messages
	}
	if sent == 0 {
		return 0
	}
	var ex tally
	for from := 0; from < c.hosts; from++ {
		row := sumLinks(t.sent, from*c.hosts, 1, c.hosts)
		if row.messages > 0 {
			c.hostBytesC[from].Add(row.bytes)
			c.hostMsgsC[from].Add(row.messages)
		}
		ex.add(&row)
	}
	c.vol.add(&ex)
	c.bytesC.Add(ex.bytes)
	c.messagesC.Add(ex.messages)
	c.encDenseC.Add(ex.enc.Dense)
	c.encSparseC.Add(ex.enc.Sparse)
	c.encAllC.Add(ex.enc.All)
	c.encBDenseC.Add(ex.encBytes.Dense)
	c.encBSparseC.Add(ex.encBytes.Sparse)
	c.encBAllC.Add(ex.encBytes.All)
	return ex.messages
}

// breakEven is the work, summed over a phase's tasks, below which the
// caller runs an in-process phase alone rather than wake the pool, which
// costs microseconds however little the phase does. 5, 20 and 50 µs
// measured alike on web_sbbc_h4; 0 (every phase pooled) was 2× slower.
const breakEven = 20 * time.Microsecond

// phaseCost is the work its last dispatch measured for a phase body: the
// sum of its task times, never the pooled wall, which includes the wake-up.
type phaseCost struct {
	body uintptr
	work time.Duration
}

// dispatch runs task(0..n-1) as one in-process phase of body, begun at
// clock start, and returns the clock at its end. A body (keyed by its
// code, so one estimate serves every batch) whose last dispatch measured
// less work than breakEven runs on the caller in index order: no wake-up,
// no barrier; any other, and a new one, on the pool. With laps set the
// tasks are compute hosts, each advancing c.lap on the caller, and the
// one that passes breakEven hands the hosts after it to the pool.
func (c *Cluster) dispatch(body any, n int, task func(i int), start time.Duration, laps bool) (end time.Duration) {
	key := reflect.ValueOf(body).Pointer()
	k := 0
	for k < len(c.costs) && c.costs[k].body != key {
		k++
	}
	if k == len(c.costs) {
		c.costs = append(c.costs, phaseCost{body: key, work: breakEven})
	}
	if c.costs[k].work >= breakEven {
		c.pooledC.Inc()
		c.costs[k].work = c.pool.runAll(0, n, task)
		return c.now()
	}
	c.onCaller, c.lap = laps, start
	i := 0
	for i < n && c.lap-start < breakEven {
		task(i)
		i++
	}
	c.onCaller = false
	if i < n {
		c.escapedC.Inc()
		ran := c.lap - start
		c.costs[k].work = ran + c.pool.runAll(i, n, task)
		return c.now()
	}
	c.callerC.Inc()
	end = c.lap
	if !laps {
		end = c.now()
	}
	c.costs[k].work = end - start
	return end
}

// claimTicket hands out a free exchange ticket, and makes one when every
// ticket is open: as many exist as the caller ever held open at once.
func (c *Cluster) claimTicket() *PendingExchange {
	for _, t := range c.tickets {
		if !t.inUse {
			t.inUse = true
			return t
		}
	}
	links := c.hosts * c.hosts
	t := &PendingExchange{c: c, inUse: true,
		writers: make([]gluon.Writer, links), sent: make([]tally, links), recv: make([]tally, links)}
	c.tickets = append(c.tickets, t)
	return t
}

// emitExchangeEvents publishes the per-host pack/unpack phase events —
// a sender's row of sent links, a receiver's column of received ones —
// plus the link events and the cluster-wide exchange slice. Only hosts
// that moved data appear, so event content mirrors the message-level
// accounting.
func (c *Cluster) emitExchangeEvents(t *PendingExchange, completeStart, end, hidden time.Duration) {
	round := int32(t.round)
	packBase := t.start.Nanoseconds()
	packDur := (t.packEnd - t.start).Nanoseconds()
	unpackBase := completeStart.Nanoseconds()
	unpackDur := (end - completeStart).Nanoseconds()
	for h := 0; h < c.hosts; h++ {
		if ht := sumLinks(t.sent, h*c.hosts, 1, c.hosts); ht.messages > 0 {
			c.trace.Emit(obs.Event{Kind: obs.KindPhase, Seq: t.packSeq, Round: round, Batch: t.batch,
				Host: int32(h), Phase: obs.PhasePack,
				Bytes: ht.bytes, Messages: ht.messages,
				Dense: ht.enc.Dense, Sparse: ht.enc.Sparse, All: ht.enc.All,
				StartNs: packBase, DurNs: packDur})
		}
	}
	for h := 0; h < c.hosts; h++ {
		if ht := sumLinks(t.recv, h, c.hosts, c.hosts); ht.messages > 0 {
			c.trace.Emit(obs.Event{Kind: obs.KindPhase, Seq: t.unpackSeq, Round: round, Batch: t.batch,
				Host: int32(h), Phase: obs.PhaseUnpack,
				Bytes: ht.bytes, Messages: ht.messages,
				StartNs: unpackBase, DurNs: unpackDur})
		}
	}
	// Link events: one per directed (from, to) pair that moved data, on
	// each side the pair touched locally. Both sides carry the pack seq,
	// so a sent link and its received twin share the conservation key
	// (epoch, seq, from, to) even across different hosts' trace files.
	// No timings: link content is a pure function of the model, which is
	// what lets merged traces compare them byte-exactly.
	for i := range t.sent {
		if pt := &t.sent[i]; pt.messages > 0 {
			c.trace.Emit(obs.Event{Kind: obs.KindLink, Seq: t.packSeq, Round: round, Batch: t.batch,
				Host: int32(i / c.hosts), Peer: int32(i % c.hosts), Phase: obs.PhasePack,
				Bytes: pt.bytes, Messages: pt.messages,
				Dense: pt.enc.Dense, Sparse: pt.enc.Sparse, All: pt.enc.All})
		}
	}
	for i := range t.recv {
		if pt := &t.recv[i]; pt.messages > 0 {
			c.trace.Emit(obs.Event{Kind: obs.KindLink, Seq: t.packSeq, Round: round, Batch: t.batch,
				Host: int32(i % c.hosts), Peer: int32(i / c.hosts), Phase: obs.PhaseUnpack,
				Bytes: pt.bytes, Messages: pt.messages,
				Dense: pt.enc.Dense, Sparse: pt.enc.Sparse, All: pt.enc.All})
		}
	}
	c.trace.Emit(obs.Event{Kind: obs.KindPhase, Seq: t.packSeq, Round: round, Batch: t.batch,
		Host: -1, Phase: obs.PhaseExchange,
		StartNs: packBase, DurNs: (end - t.start).Nanoseconds(),
		HiddenNs: hidden.Nanoseconds()})
}

// Exchange performs one communication step on every link: every host
// produces a buffer for every other host (pack, parallel over (from, to)
// pairs on the worker pool, writing into the pair's pooled writer; a
// pack that writes nothing sends nothing), buffers are "transmitted"
// (counted inside the pack loop), and consumed on the receiver's task
// (unpack, one receiver at a time per host, with the host's pooled
// decoder). Serialization and deserialization run inside the
// communication phase, matching the paper's accounting ("non-overlapped
// communication time ... includes data structure access time to
// (de)serialize messages"). It is Sync with no links named and no vote.
//
// Pack callbacks for distinct pairs run concurrently, including pairs
// sharing the sender: a pack must only read sender state shared across
// destinations, or mutate state owned by its pair's shared-vertex list
// (mirror lists of distinct pairs are disjoint, so per-vertex writes
// are safe).
func (c *Cluster) Exchange(pack func(from, to int, w *gluon.Writer), unpack func(to, from int, data []byte, dec *gluon.Decoder)) {
	c.exchange(Sync{Pack: pack, Unpack: unpack}, 0, false)
}

// Sync is one exchange of a BSP loop: the links it moves records on, its
// two halves (see Exchange) and whether it carries the loop's vote.
type Sync struct {
	// Links carry a record and its term (nil: every link); a pair
	// outside them is neither packed nor sent. Every host must pass the
	// same set, as one derived from a shared gluon.Topology is.
	Links  *gluon.Links
	Pack   func(from, to int, w *gluon.Writer)
	Unpack func(to, from int, data []byte, dec *gluon.Decoder)
	// Vote marks a term that is a BSP loop's activity (the quiescence
	// test is `if c.Sync(s, activity) == 0 { break }`): in process a zero
	// one is every host's, nothing is to be sent, and nothing is opened.
	Vote bool
}

// Sync runs s in place and returns local plus the terms of the hosts
// whose links to this one are in s.Links — with nil links every host's,
// the cluster-wide sum. In process the caller has summed over every host
// already: local comes back as it is, whatever the links. An SPMD
// process sends its term in the header of every record on its links and
// adds its senders' as they arrive: an idle round costs one exchange of
// empty markers — a wait a pipelined batch can overlap — and no round
// pays a standalone all-reduce. A narrower set reaches fewer hosts; a
// caller that passes one relays the partial sum in a later exchange
// until it has reached every host (gluon.Topology.VoteLegs).
func (c *Cluster) Sync(s Sync, local int64) int64 {
	if t := c.exchange(s, local, false); t != nil {
		return t.sum
	}
	return 0
}

// BeginSync starts s detached: the pack phase runs and the buffers go on
// the wire, but unpack waits for the ticket's Complete, after which its
// Sum is what Sync would have returned. Compute that does not depend on
// the incoming data may run in between; the wire time it covers is
// tallied as hidden. A vote that opens nothing returns nil.
func (c *Cluster) BeginSync(s Sync, local int64) *PendingExchange {
	return c.exchange(s, local, true)
}

// exchange runs s under a ticket, carrying local on each of its links,
// up to its pack phase if detached; nil for a vote in process that has
// nothing to move.
func (c *Cluster) exchange(s Sync, local int64, detached bool) *PendingExchange {
	if s.Vote && local == 0 && c.localHost < 0 {
		return nil
	}
	t := c.claimTicket()
	t.detached, t.links, t.sum = detached, s.Links, local
	c.begin(t, s.Pack, s.Unpack)
	if !detached {
		c.complete(t)
	}
	return t
}

// begin runs the pack phase of an exchange under the given ticket and
// records everything Complete needs to finish it later.
func (c *Cluster) begin(t *PendingExchange, pack func(from, to int, w *gluon.Writer), unpack func(to, from int, data []byte, dec *gluon.Decoder)) {
	t.packSeq = c.nextSeq()
	t.unpackSeq = c.nextSeq()
	t.ex = c.exchanges
	c.exchanges++
	t.round = c.rounds
	t.batch = c.eventBatch
	c.cur = t
	t.start = c.now()
	if c.localHost >= 0 {
		if err := c.transport.Propose(t.ex, c.localHost, t.sum); err != nil {
			c.noteTransportError(err)
		}
	}
	t.packEnd = c.runPackPhase(pack, t.start)
	sent := c.settle(t)
	c.checkExchangeErr()
	// In process, an exchange that sent no message has nothing to unpack:
	// Complete runs no unpack phase. Remote receivers still synchronize
	// on their peers' empty markers. The paper-model Stats cannot tell
	// the difference — an empty buffer was never a message — and the
	// trace still gets its exchange event.
	t.empty = sent == 0 && c.localHost < 0
	t.unpack = unpack
}

// complete runs the unpack phase of a begun exchange and retires its
// ticket.
func (c *Cluster) complete(t *PendingExchange) {
	// An exchange completed in place resumes where its pack phase ended.
	completeStart := t.packEnd
	if t.detached {
		completeStart = c.now()
	}
	end := completeStart
	if !t.empty {
		c.cur = t
		c.unpackFn = t.unpack
		if h := c.localHost; h >= 0 {
			c.unpackTask(h)
			// Every peer is gathered: the transport has every term.
			var err error
			if t.sum, err = c.transport.Sum(t.ex, h); err != nil {
				c.noteTransportError(err)
			}
			end = c.now()
		} else {
			end = c.dispatch(t.unpack, c.hosts, c.unpackTaskFn, completeStart, false)
		}
		c.unpackFn = nil
	}
	t.unpack = nil
	// The gap between the pack finishing and a detached exchange's
	// Complete was covered by the caller's own compute: exchange wait the
	// pipeline hid. Only the pack and unpack phases themselves count as
	// non-overlapped communication.
	hidden := completeStart - t.packEnd
	wall := t.packEnd - t.start + end - completeStart
	c.commWall += wall
	c.hiddenWall += hidden
	c.commHist.Observe(wall.Seconds())
	if c.trace != nil {
		c.emitExchangeEvents(t, completeStart, end, hidden)
		c.emitNetTransportEvent(t.unpackSeq, t.batch, t.start, end)
	}
	// A ticket's links are zero between exchanges; an empty one never
	// wrote them.
	if !t.empty {
		clear(t.sent)
		clear(t.recv)
	}
	t.detached = false
	t.inUse = false
	c.checkExchangeErr()
}

// emitNetTransportEvent publishes one transport event per exchange for
// remote backends: the backend label plus the exchange's logical volume
// and recovery-work deltas aggregated over the local host's outgoing
// channels. The in-process backend emits nothing here, keeping the
// canonical golden trace byte-identical to the pre-transport substrate.
func (c *Cluster) emitNetTransportEvent(seq int64, batch int32, start, end time.Duration) {
	if c.localHost < 0 {
		return
	}
	var agg gluon.ChannelStats
	for to := 0; to < c.hosts; to++ {
		agg.Add(c.transport.Stats(c.localHost, to))
	}
	d := agg
	last := c.lastNet
	c.lastNet = agg
	d.Messages -= last.Messages
	d.Bytes -= last.Bytes
	d.Control -= last.Control
	d.Retries -= last.Retries
	d.RetryBytes -= last.RetryBytes
	d.Redials -= last.Redials
	c.trace.Emit(obs.Event{Kind: obs.KindTransport, Seq: seq, Batch: batch,
		Round: int32(c.rounds), Host: int32(c.localHost),
		Backend:    c.transport.Backend(),
		Bytes:      d.Bytes,
		Messages:   d.Messages,
		Retries:    d.Retries,
		RetryBytes: d.RetryBytes,
		Redials:    d.Redials,
		StartNs:    start.Nanoseconds(),
		DurNs:      (end - start).Nanoseconds()})
}

// Stats is a snapshot of execution costs. Bytes and Messages are the
// paper-model communication volume: each logical sync payload counted
// exactly once. A remote transport's framing, retransmissions and acks
// are not in them (its ChannelStats count those), so the volume of a
// run is the same over any backend, with or without faults.
type Stats struct {
	Hosts         int
	Rounds        int
	Bytes         int64         // total communication volume (paper model)
	Messages      int64         // inter-host buffers exchanged (paper model)
	ComputeTime   time.Duration // max total compute time across hosts
	CommTime      time.Duration // non-overlapped communication wall time
	HiddenTime    time.Duration // exchange wait hidden behind pipelined compute
	LoadImbalance float64       // mean over rounds of max/mean over participating hosts
	// Encoding breaks Messages down by sync-metadata wire format
	// (dense bitvector / sparse index list / all-marked). Messages not
	// produced by gluon.EncodeUpdates (raw payloads in tests) appear in
	// Messages but in no Encoding bucket.
	Encoding gluon.EncodingCounts
}

// Stats returns the current statistics snapshot: the cluster's own
// counts, which a Restore seeds (pinned against an independent recount
// by TestVolumeAccountingMatchesSerialRecount and the chaostest volume
// sweep).
func (c *Cluster) Stats() Stats {
	var maxCompute time.Duration
	for _, d := range c.perHostCompute {
		if d > maxCompute {
			maxCompute = d
		}
	}
	imb := 1.0
	if c.imbalanceN > 0 {
		imb = c.imbalanceSum / float64(c.imbalanceN)
	}
	return Stats{
		Hosts:         c.hosts,
		Rounds:        int(c.rounds),
		Bytes:         c.vol.bytes,
		Messages:      c.vol.messages,
		ComputeTime:   maxCompute,
		CommTime:      c.commWall,
		HiddenTime:    c.hiddenWall,
		LoadImbalance: imb,
		Encoding:      c.vol.enc,
	}
}

// workerPool is a fixed set of long-lived goroutines that, together with
// the goroutine dispatching a phase, execute indexed tasks claimed off a
// shared atomic counter. Dispatching a phase costs one channel send per
// woken worker, at most one receive, and zero allocations (a `go`
// statement per phase would allocate), but a woken worker takes
// microseconds to come up, so dispatch sends it only phases with that
// much work. Only in-process clusters have one: the pool runs hosts side
// by side, and an SPMD cluster (remote transport, one local host) runs
// its phases on the caller instead.
type workerPool struct {
	workers int
	epoch   time.Time     // the cluster's, for the participants' clock reads
	wake    chan struct{} // one token per woken worker per phase; closed to release the workers
	done    chan struct{} // one token per phase, from whoever finishes last
	next    atomic.Int64  // task cursor
	pending atomic.Int32  // participants (woken workers and the caller) still in the phase
	busy    atomic.Int64  // nanoseconds the phase's participants spent on its tasks
	total   int64
	run     func(i int) // current phase body; published via wake
}

func newWorkerPool(workers int, epoch time.Time) *workerPool {
	p := &workerPool{
		workers: workers,
		epoch:   epoch,
		wake:    make(chan struct{}, workers),
		done:    make(chan struct{}, 1),
	}
	for i := 0; i < workers; i++ {
		go p.loop()
	}
	return p
}

func (p *workerPool) loop() {
	for range p.wake {
		if p.work() {
			p.done <- struct{}{}
		}
	}
}

// work claims and runs tasks until none is left, adds the time it spent
// on them to busy, and reports whether the caller was the phase's last
// participant to finish.
func (p *workerPool) work() (last bool) {
	t0 := time.Since(p.epoch)
	for {
		i := p.next.Add(1) - 1
		if i >= p.total {
			p.busy.Add(int64(time.Since(p.epoch) - t0))
			return p.pending.Add(-1) == 0
		}
		p.run(int(i))
	}
}

// runAll executes fn(from..total-1) across the pool and the calling
// goroutine, returns when all tasks finished, and reports the phase's
// work: the time its participants spent on its tasks, without the
// wake-up. It wakes every worker the phase has a task for and then works
// itself, so a phase of long tasks has GOMAXPROCS workers on it (a pool
// one short, with the caller as its last worker, leaves the one woken
// worker in the caller's runnext, out of an idle P's reach, for as long
// as the caller's own task runs). The channel send orders the writes to
// run/total before any worker reads them; the pending counter orders
// every participant's task effects and busy time before the caller
// resumes.
func (p *workerPool) runAll(from, total int, fn func(i int)) time.Duration {
	p.run = fn
	p.total = int64(total)
	p.next.Store(int64(from))
	p.busy.Store(0)
	n := min(p.workers, total-from)
	p.pending.Store(int32(n + 1))
	for i := 0; i < n; i++ {
		p.wake <- struct{}{}
	}
	if !p.work() {
		<-p.done
	}
	p.run = nil
	return time.Duration(p.busy.Load())
}
