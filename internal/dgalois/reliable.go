package dgalois

import (
	"fmt"
	"sort"

	"mrbc/internal/gluon"
	"mrbc/internal/obs"
)

// Reliable exchange: the fault-tolerant replacement for the perfect
// all-to-all of dgalois.go, used whenever the cluster carries a
// FaultPlan. One BSP exchange becomes a loop of *delivery steps*:
//
//  1. every sender (re)transmits its unacknowledged frames — each
//     message travels in a gluon frame with a per-channel sequence
//     number and CRC-32C checksum;
//  2. the fault plan mutates transmissions in flight (drop, duplicate,
//     delay, truncate, corrupt, reorder) and silences stalled hosts;
//  3. receivers verify the checksum and sequence number, unpack each
//     message exactly once (duplicates from retransmits or Dup faults
//     are detected by sequence number and merely re-acknowledged), and
//     return acks, which the plan may also drop;
//  4. a sender stops retransmitting a channel once its ack arrives.
//
// The loop ends when every message is acknowledged — the BSP barrier
// therefore still guarantees complete, exactly-once delivery to the
// algorithms above, which is why they stay oracle-exact under every
// recoverable fault schedule. If the deadline expires first (a host
// stalled past it, or pathological loss), the exchange aborts the run
// with a structured *FaultError via panic/Capture instead of
// deadlocking the barrier.
//
// Accounting: Stats.Bytes/Messages count each logical payload exactly
// once (the paper-model volume, identical with and without the fault
// layer); framing overhead, retransmissions, and acks are tallied
// separately in FaultStats.

// ackBytes models the wire cost of one acknowledgement (channel seq +
// host pair), tallied in FaultStats only.
const ackBytes = 12

// reliableChannel is one in-flight logical message.
type reliableChannel struct {
	from, to  int
	seq       uint32
	frame     []byte
	attempts  int
	delivered bool // receiver has unpacked it
	acked     bool // sender has seen the ack
}

// reliableArrival is one (possibly damaged) copy in flight.
type reliableArrival struct {
	ch   *reliableChannel
	data []byte
	due  int // delivery step at which it reaches the receiver
	id   uint64
}

func (c *Cluster) exchangeReliable(pack func(from, to int, w *gluon.Writer), unpack func(to, from int, data []byte, dec *gluon.Decoder)) {
	// The reliable path consumes exactly as many phase sequence numbers
	// as the perfect path (pack, then unpack; the transport event rides
	// on the unpack seq), so the paper-model event stream of a faulty
	// run lines up event-for-event with the fault-free run's. It claims
	// an exchange ticket like the perfect path but stays fully
	// synchronous, and its exchange indices stay globally sequential
	// even inside a batch stream — stall schedules key on them.
	t := c.claimTicket()
	t.packSeq = c.nextSeq()
	t.unpackSeq = c.nextSeq()
	if c.trace != nil {
		t.resetTallies()
	}
	t.round = c.roundsC.Load() - c.baseRounds
	t.batch = c.eventBatch
	fBefore := c.faults
	start := c.now()
	t.start = start
	p := c.plan
	ex := c.exchanges
	c.exchanges++
	t.ex = ex
	c.curEx = ex
	c.curWriters = t.writers
	c.curPack = t.hostPack
	c.curUnpack = t.hostUnpack
	c.curPairPack = t.pairPack
	c.curPairUnpack = t.pairUnpack

	// Pack phase: the same pair-parallel pooled-writer loop as the
	// fault-free path, which also does the paper-model volume
	// accounting (each payload counted exactly once, before any fault
	// can touch it). Packed buffers land in the in-process transport's
	// inbox matrix (a FaultPlan requires the MemTransport — enforced at
	// construction), from which the delivery-step loop below picks them
	// up for framed, faulted redelivery.
	_, packEnd := c.runPackPhase(pack, start)
	t.packEnd = packEnd

	// Frame every non-empty buffer. EncodeFrame copies the payload, so
	// the pooled writers are free for the next exchange regardless of
	// how long retransmission keeps frames alive.
	var chans []*reliableChannel
	for from := 0; from < c.hosts; from++ {
		for to := 0; to < c.hosts; to++ {
			buf := c.mem.Buffered(ex, from, to)
			if len(buf) == 0 {
				continue
			}
			c.seqOut[from][to]++
			fr := gluon.EncodeFrame(c.seqOut[from][to], buf)
			c.faults.FrameBytes += gluon.FrameOverhead
			c.faults.PerHost[from].SentMessages++
			chans = append(chans, &reliableChannel{from: from, to: to, seq: c.seqOut[from][to], frame: fr})
		}
	}

	unacked := len(chans)
	deadline := p.deadline()
	var inflight, due []reliableArrival
	step := 0
	for unacked > 0 {
		step++
		if step > deadline {
			c.commWall += c.now() - start
			panic(abortPanic{err: c.deadlineError(chans, ex, step)})
		}
		// Stall accounting: once per silenced host per step while the
		// exchange is in progress.
		for h := 0; h < c.hosts; h++ {
			if p.stalled(h, ex, step) {
				c.faults.StalledSteps++
				c.faults.PerHost[h].StalledSteps++
			}
		}

		// Transmit every unacknowledged channel whose sender is awake.
		for _, ch := range chans {
			if ch.acked || p.stalled(ch.from, ex, step) {
				continue
			}
			ch.attempts++
			if ch.attempts > 1 {
				c.faults.RetryMessages++
				c.faults.RetryBytes += int64(len(ch.frame))
				c.faults.PerHost[ch.from].Retries++
				c.faults.PerHost[ch.from].RetryBytes += int64(len(ch.frame))
			}
			nonce := uint64(ch.attempts)
			if p.chance(p.Drop, kindDrop, ch.from, ch.to, ch.seq, nonce) {
				c.faults.Drops++
				c.faults.PerHost[ch.from].FaultsOut++
				continue
			}
			copies := 1
			if p.chance(p.Dup, kindDup, ch.from, ch.to, ch.seq, nonce) {
				copies = 2
				c.faults.Dups++
				c.faults.PerHost[ch.from].FaultsOut++
			}
			for ci := 0; ci < copies; ci++ {
				id := nonce<<8 | uint64(ci)
				data := ch.frame
				switch {
				case p.chance(p.Truncate, kindTruncate, ch.from, ch.to, ch.seq, id):
					cut := 1 + p.intn(len(data)-1, kindTruncLen, ch.from, ch.to, ch.seq, id)
					data = data[:cut]
					c.faults.Truncations++
					c.faults.PerHost[ch.from].FaultsOut++
				case p.chance(p.Corrupt, kindCorrupt, ch.from, ch.to, ch.seq, id):
					cp := append([]byte(nil), data...)
					bit := p.intn(len(cp)*8, kindCorruptBit, ch.from, ch.to, ch.seq, id)
					cp[bit/8] ^= 1 << (bit % 8)
					data = cp
					c.faults.Corruptions++
					c.faults.PerHost[ch.from].FaultsOut++
				}
				d := 0
				if p.chance(p.Delay, kindDelay, ch.from, ch.to, ch.seq, id) {
					d = 1 + p.intn(p.maxDelay(), kindDelayLen, ch.from, ch.to, ch.seq, id)
					c.faults.Delays++
					c.faults.PerHost[ch.from].FaultsOut++
				}
				inflight = append(inflight, reliableArrival{ch: ch, data: data, due: step + d, id: id})
			}
		}

		// Split out this step's arrivals; later ones stay in flight.
		due = due[:0]
		keep := inflight[:0]
		for _, a := range inflight {
			if a.due <= step {
				due = append(due, a)
			} else {
				keep = append(keep, a)
			}
		}
		inflight = keep

		// Deterministic arrival order: by receiver, then sender, then
		// copy id. A Reorder fault reverses one receiver's arrivals
		// within the step (observable through unpack call order, which
		// the algorithms must tolerate — their reductions commute).
		sort.SliceStable(due, func(i, j int) bool {
			if due[i].ch.to != due[j].ch.to {
				return due[i].ch.to < due[j].ch.to
			}
			if due[i].ch.from != due[j].ch.from {
				return due[i].ch.from < due[j].ch.from
			}
			return due[i].id < due[j].id
		})
		for lo := 0; lo < len(due); {
			hi := lo + 1
			for hi < len(due) && due[hi].ch.to == due[lo].ch.to {
				hi++
			}
			if hi-lo > 1 && p.chance(p.Reorder, kindReorder, due[lo].ch.to, due[lo].ch.to, uint32(ex), uint64(step)) {
				c.faults.Reorders++
				for i, j := lo, hi-1; i < j; i, j = i+1, j-1 {
					due[i], due[j] = due[j], due[i]
				}
			}
			lo = hi
		}

		// Receive, verify, unpack once, acknowledge.
		for _, a := range due {
			ch := a.ch
			if p.stalled(ch.to, ex, step) {
				continue // receiver deaf; the copy is lost, sender retries
			}
			seq, payload, err := gluon.DecodeFrame(a.data)
			if err != nil {
				continue // damaged in flight: no ack, sender retries
			}
			if seq != ch.seq {
				continue // defensive: a foreign sequence number is never applied
			}
			if !ch.delivered {
				if want := c.seqIn[ch.to][ch.from] + 1; seq != want {
					panic(fmt.Sprintf("dgalois: channel %d->%d received seq %d, want %d", ch.from, ch.to, seq, want))
				}
				unpack(ch.to, ch.from, payload, c.decoders[ch.to])
				ch.delivered = true
				c.seqIn[ch.to][ch.from] = seq
				if c.trace != nil {
					// Delivered payload == packed payload (checksum-
					// verified), so receiver tallies match the fault-free
					// run exactly. Delivery runs on the coordinator, so no
					// atomics are needed here.
					c.curUnpack[ch.to].bytes += int64(len(payload))
					c.curUnpack[ch.to].messages++
					c.tallyUnpackPair(ch.from, ch.to, int64(len(payload)))
				}
			}
			// Ack travels back unless faulted or the sender is deaf; a
			// lost ack just means one more retransmission and a
			// sequence-deduplicated re-ack next step.
			if p.chance(p.AckDrop, kindAckDrop, ch.from, ch.to, ch.seq, a.id) {
				c.faults.AckDrops++
				continue
			}
			if p.stalled(ch.from, ex, step) {
				continue
			}
			if !ch.acked {
				ch.acked = true
				unacked--
				c.faults.AckMessages++
				c.faults.AckBytes += ackBytes
			}
		}
	}

	c.mem.Reclaim(ex)
	c.faults.DeliverySteps += int64(step)
	if step > c.faults.MaxDeliverySteps {
		c.faults.MaxDeliverySteps = step
	}
	end := c.now()
	wall := end - start
	c.commWall += wall
	c.commHist.Observe(wall.Seconds())
	if c.trace != nil {
		c.emitExchangeEvents(t, packEnd, end, 0)
		f := &c.faults
		injected := (f.Drops - fBefore.Drops) + (f.Dups - fBefore.Dups) +
			(f.Delays - fBefore.Delays) + (f.Truncations - fBefore.Truncations) +
			(f.Corruptions - fBefore.Corruptions) + (f.Reorders - fBefore.Reorders) +
			(f.AckDrops - fBefore.AckDrops)
		c.trace.Emit(obs.Event{Kind: obs.KindTransport, Seq: t.unpackSeq, Batch: t.batch,
			Round: int32(c.roundsC.Load()), Host: -1,
			Retries:     f.RetryMessages - fBefore.RetryMessages,
			RetryBytes:  f.RetryBytes - fBefore.RetryBytes,
			FrameBytes:  f.FrameBytes - fBefore.FrameBytes,
			AckMessages: f.AckMessages - fBefore.AckMessages,
			AckBytes:    f.AckBytes - fBefore.AckBytes,
			Steps:       int64(step),
			Injected:    injected,
			Stalled:     f.StalledSteps - fBefore.StalledSteps,
			StartNs:     start.Nanoseconds(),
			DurNs:       wall.Nanoseconds()})
	}
	t.inUse = false
}

// deadlineError builds the structured error for an exchange that could
// not complete: it implicates a killed host first (a dead peer is a
// stronger diagnosis than a slow one), then a host stalled at the
// deadline, else the receiver of the first pending message.
func (c *Cluster) deadlineError(chans []*reliableChannel, ex, step int) *FaultError {
	pending := 0
	host := -1
	killed := false
	reason := "messages undeliverable within the deadline"
	for _, ch := range chans {
		if ch.acked {
			continue
		}
		pending++
		if host < 0 {
			host = ch.to
		}
		for _, h := range []int{ch.from, ch.to} {
			if c.plan.killed(h, ex, step) {
				host = h
				killed = true
				reason = fmt.Sprintf("host %d killed during exchange %d", h, ex)
			} else if !killed && c.plan.stalled(h, ex, step) {
				host = h
				reason = fmt.Sprintf("host %d stalled past the %d-step deadline", h, c.plan.deadline())
			}
		}
	}
	if killed {
		c.markDead(host)
	}
	return &FaultError{Host: host, Exchange: ex, Step: step, Pending: pending, Killed: killed, Reason: reason}
}
