// Package merge turns N per-host JSONL traces of one cluster run into
// a single, deterministically ordered cluster trace, and provides the
// cross-host checkers that only make sense on the merged view:
// conservation (bytes/messages host i sent to j equal what j received,
// per round and per encoding) and send/recv pairing across processes.
// The Lemma 8 round bound is obs.CheckRoundBounds, which checks a
// merged trace epoch by epoch; per-round latency and critical-path
// blame are obs.RoundAccum, which reads a merged trace and the
// per-host files it came from alike.
//
// Clock model: each bcd process timestamps events against its own
// monotonic epoch, so raw per-host timelines are mutually unaligned.
// The cluster-wide exchange event (Host = −1) is emitted by every SPMD
// process for the same exchange with the same coordinator-serial Seq,
// and its completion is a barrier: every host leaves it at the same
// logical instant. Those completions are the synchronization points —
// per (epoch, host) a least-squares fit of reference-host completion
// times against the host's own yields an offset and skew, which is
// then applied to every timestamped event. After alignment, one host's
// round-r phase slice is directly comparable with another's.
//
// Epoch model: an elastic recovery bumps the membership epoch and
// rolls every survivor back to the latest common checkpoint boundary.
// Merged traces keep every epoch's events (stamped with their epoch);
// the checkers run per epoch, and the report itemizes the rolled-back
// epochs' discarded volume (pack volume of batches at or beyond the
// adopted boundary) separately, so recovered work is visible without
// being double-counted as committed.
package merge

import (
	"fmt"
	"io"
	"os"
	"sort"

	"mrbc/internal/obs"
)

// HostTrace is one host's trace: the events plus the identity the file
// header (or the events' Origin/Epoch stamps) established.
type HostTrace struct {
	Host  int
	Epoch int
	// Hosts is the cluster size the trace was recorded under (0 when
	// the file predates headers).
	Hosts  int
	Events []obs.Event
}

// Load reads one per-host trace file. Identity comes from the header
// record when present, else from the first stamped event. A torn final
// line — a host killed mid-write — ends the host's parseable partial
// trace (obs.EventReader).
func Load(path string) (HostTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return HostTrace{}, err
	}
	defer f.Close()
	ht := HostTrace{Host: -1}
	rd := obs.NewEventReader(f)
	for {
		e, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return HostTrace{}, fmt.Errorf("%s: %w", path, err)
		}
		ht.Events = append(ht.Events, e)
	}
	if hdr, ok := rd.Header(); ok {
		ht.Host = int(hdr.Host)
		ht.Epoch = int(hdr.Epoch)
		ht.Hosts = int(hdr.Hosts)
	} else {
		for _, e := range ht.Events {
			if e.Origin != 0 {
				ht.Host = e.OriginHost()
				ht.Epoch = int(e.Epoch)
				break
			}
		}
	}
	if ht.Host < 0 {
		return HostTrace{}, fmt.Errorf("%s: trace has neither a header nor stamped events; cannot tell which host recorded it", path)
	}
	return ht, nil
}

// Alignment is the clock correction applied to one (epoch, host):
// aligned = OffsetNs + Skew·raw.
type Alignment struct {
	Host       int     `json:"host"`
	Epoch      int     `json:"epoch"`
	OffsetNs   float64 `json:"offset_ns"`
	Skew       float64 `json:"skew"`
	SyncPoints int     `json:"sync_points"`
}

// Rollback records one elastic recovery visible in the trace: the new
// epoch resumed from checkpoint boundary Batch.
type Rollback struct {
	Epoch int `json:"epoch"`
	Batch int `json:"batch"`
}

// Report summarizes what merging did and what the epochs committed.
type Report struct {
	Hosts  int   `json:"hosts"`
	Epochs []int `json:"epochs"`
	// DedupedBatches counts the SPMD duplicate batch summaries dropped
	// (every process emits each batch event; the merged trace keeps one).
	DedupedBatches int        `json:"deduped_batches,omitempty"`
	Rollbacks      []Rollback `json:"rollbacks,omitempty"`
	// Committed volume is pack volume that survived into the final
	// result: for a rolled-back epoch, only the batches below the
	// boundary the successor resumed from. Discarded volume is the
	// rest — work redone after recovery, itemized so it is visible but
	// never double-counted as committed.
	CommittedBytes    int64 `json:"committed_bytes"`
	CommittedMessages int64 `json:"committed_messages"`
	DiscardedBytes    int64 `json:"discarded_bytes,omitempty"`
	DiscardedMessages int64 `json:"discarded_messages,omitempty"`

	Alignments []Alignment `json:"alignments,omitempty"`
}

// WriteSummary prints what merging did and what the epochs committed:
// the deduplicated batch summaries, each rollback, and the committed
// and discarded volume.
func (r *Report) WriteSummary(w io.Writer) {
	if r.DedupedBatches > 0 {
		fmt.Fprintf(w, "deduplicated %d SPMD batch summaries\n", r.DedupedBatches)
	}
	for _, rb := range r.Rollbacks {
		fmt.Fprintf(w, "rollback: epoch %d resumed from batch %d\n", rb.Epoch, rb.Batch)
	}
	fmt.Fprintf(w, "committed %d bytes / %d messages", r.CommittedBytes, r.CommittedMessages)
	if r.DiscardedBytes > 0 || r.DiscardedMessages > 0 {
		fmt.Fprintf(w, "; discarded %d bytes / %d messages to rollbacks", r.DiscardedBytes, r.DiscardedMessages)
	}
	fmt.Fprintln(w)
}

// Merged is one cluster run's unified trace.
type Merged struct {
	Hosts  int
	Events []obs.Event
	Report Report
}

// Merge aligns and unifies per-host traces (any argument order — the
// output is a pure function of the set). Every event is stamped with
// its origin host and epoch, SPMD duplicate batch summaries are
// deduplicated after a lockstep agreement check, clocks are aligned
// per (epoch, host) against the epoch's lowest-indexed host, and the
// result is sorted into a deterministic total order, so merging the
// same files twice is byte-identical.
func Merge(traces []HostTrace) (*Merged, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("merge: no traces")
	}
	traces = append([]HostTrace(nil), traces...)
	sort.SliceStable(traces, func(i, j int) bool {
		if traces[i].Epoch != traces[j].Epoch {
			return traces[i].Epoch < traces[j].Epoch
		}
		return traces[i].Host < traces[j].Host
	})
	hosts := 0
	seen := make(map[[2]int]bool, len(traces))
	for _, ht := range traces {
		if ht.Host < 0 {
			return nil, fmt.Errorf("merge: trace with unknown host")
		}
		k := [2]int{ht.Epoch, ht.Host}
		if seen[k] {
			return nil, fmt.Errorf("merge: two traces for host %d epoch %d", ht.Host, ht.Epoch)
		}
		seen[k] = true
		hosts = max(hosts, ht.Hosts, ht.Host+1)
	}

	m := &Merged{Hosts: hosts}
	m.Report.Hosts = hosts

	// Stamp, group by epoch.
	byEpoch := make(map[int][]HostTrace)
	var epochs []int
	for _, ht := range traces {
		evs := make([]obs.Event, len(ht.Events))
		copy(evs, ht.Events)
		for i := range evs {
			evs[i].Origin = int32(ht.Host) + 1
			evs[i].Epoch = int32(ht.Epoch)
		}
		ht.Events = evs
		if _, ok := byEpoch[ht.Epoch]; !ok {
			epochs = append(epochs, ht.Epoch)
		}
		byEpoch[ht.Epoch] = append(byEpoch[ht.Epoch], ht)
	}
	sort.Ints(epochs)
	m.Report.Epochs = epochs

	var out []obs.Event
	for _, ep := range epochs {
		group := byEpoch[ep]
		// Clock alignment against the epoch's lowest-indexed host.
		refEnds := exchangeEnds(group[0].Events)
		for gi := range group {
			al := Alignment{Host: group[gi].Host, Epoch: ep, Skew: 1}
			if gi > 0 {
				al = fitAlignment(refEnds, exchangeEnds(group[gi].Events), group[gi].Host, ep)
				applyAlignment(group[gi].Events, al)
			}
			m.Report.Alignments = append(m.Report.Alignments, al)
		}
		// Dedup SPMD batch summaries, checking lockstep agreement.
		deduped, n, err := dedupBatches(group)
		if err != nil {
			return nil, err
		}
		m.Report.DedupedBatches += n
		out = append(out, deduped...)
	}

	if err := m.accountEpochs(out); err != nil {
		return nil, err
	}

	sort.SliceStable(out, func(i, j int) bool { return mergeLess(out[i], out[j]) })
	m.Events = out
	return m, nil
}

// exchangeEnds indexes the completion instants of the cluster-wide
// exchange events by Seq — the barrier instants alignment fits.
func exchangeEnds(events []obs.Event) map[int64]int64 {
	ends := make(map[int64]int64)
	for _, e := range events {
		if e.Kind == obs.KindPhase && e.Phase == obs.PhaseExchange && e.Host == -1 {
			ends[e.Seq] = e.StartNs + e.DurNs
		}
	}
	return ends
}

// fitAlignment least-squares-fits reference completion times against
// the host's own over the shared exchange seqs: ref ≈ offset + skew·t.
// With one shared point only the offset is estimable; with none the
// identity mapping is kept (SyncPoints records how much evidence the
// fit had).
func fitAlignment(ref, own map[int64]int64, host, epoch int) Alignment {
	al := Alignment{Host: host, Epoch: epoch, Skew: 1}
	var xs, ys []float64
	for seq, t := range own {
		if rt, ok := ref[seq]; ok {
			xs = append(xs, float64(t))
			ys = append(ys, float64(rt))
		}
	}
	al.SyncPoints = len(xs)
	if len(xs) == 0 {
		return al
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(xs))
	var sxx, sxy float64
	for i := range xs {
		sxx += (xs[i] - mx) * (xs[i] - mx)
		sxy += (xs[i] - mx) * (ys[i] - my)
	}
	if sxx > 0 {
		al.Skew = sxy / sxx
		// A fitted skew far from 1 means the "sync points" were not the
		// same instants (broken trace); clamp to pure offset rather than
		// warp durations wildly.
		if al.Skew < 0.5 || al.Skew > 2 {
			al.Skew = 1
		}
	}
	al.OffsetNs = my - al.Skew*mx
	return al
}

// applyAlignment rewrites a host's timestamps into the reference
// clock. Events without timings (links, sends, batch summaries) have
// all-zero timing fields and pass through untouched.
func applyAlignment(events []obs.Event, al Alignment) {
	for i := range events {
		e := &events[i]
		if e.StartNs != 0 {
			e.StartNs = int64(al.OffsetNs + al.Skew*float64(e.StartNs))
		}
		if e.DurNs != 0 {
			e.DurNs = int64(al.Skew * float64(e.DurNs))
		}
		if e.HiddenNs != 0 {
			e.HiddenNs = int64(al.Skew * float64(e.HiddenNs))
		}
	}
}

// dedupBatches keeps one batch summary per batch index within an
// epoch, erroring if two hosts' copies disagree — SPMD processes run
// the same deterministic schedule, so a divergent batch summary means
// the cluster was not in lockstep.
func dedupBatches(group []HostTrace) ([]obs.Event, int, error) {
	kept := make(map[int32]obs.Event)
	dropped := 0
	var out []obs.Event
	for _, ht := range group {
		for _, e := range ht.Events {
			if e.Kind != obs.KindBatch {
				out = append(out, e)
				continue
			}
			prev, ok := kept[e.Batch]
			if !ok {
				kept[e.Batch] = e
				out = append(out, e)
				continue
			}
			if prev.K != e.K || prev.FwdRounds != e.FwdRounds || prev.BackRounds != e.BackRounds {
				return nil, 0, fmt.Errorf(
					"merge: hosts %d and %d disagree on batch %d (epoch %d): k=%d/%d fwd=%d/%d back=%d/%d — cluster not in lockstep",
					prev.OriginHost(), e.OriginHost(), e.Batch, e.Epoch,
					prev.K, e.K, prev.FwdRounds, e.FwdRounds, prev.BackRounds, e.BackRounds)
			}
			dropped++
		}
	}
	return out, dropped, nil
}

// accountEpochs derives the rollback records and the committed vs
// discarded volume split from the stamped event stream, which must
// still hold each host's events in emission order.
func (m *Merged) accountEpochs(events []obs.Event) error {
	// boundary[e] = the batch boundary epoch e resumed from.
	boundary := make(map[int]int)
	for _, e := range events {
		if e.Kind == obs.KindElastic && e.Phase == obs.PhaseRestore {
			ep, b := int(e.Epoch), int(e.Batch)
			if prev, ok := boundary[ep]; ok && prev != b {
				return fmt.Errorf("merge: epoch %d restored from two boundaries (%d and %d)", ep, prev, b)
			}
			boundary[ep] = b
		}
	}
	// A recovery epoch that restored nothing restarted from batch 0.
	for _, ep := range m.Report.Epochs[1:] {
		if _, ok := boundary[ep]; !ok {
			boundary[ep] = 0
		}
	}
	var rbEpochs []int
	for ep := range boundary {
		rbEpochs = append(rbEpochs, ep)
	}
	sort.Ints(rbEpochs)
	for _, ep := range rbEpochs {
		m.Report.Rollbacks = append(m.Report.Rollbacks, Rollback{Epoch: ep, Batch: boundary[ep]})
	}
	// An epoch's work on batch b is discarded iff some later epoch
	// resumed from a boundary ≤ b (that work was recomputed). Walk
	// epochs descending, carrying the lowest later boundary.
	lowest := make(map[int]int32) // epoch → cutoff batch, discarded at ≥
	cut := int32(1<<31 - 1)
	for i := len(m.Report.Epochs) - 1; i >= 0; i-- {
		ep := m.Report.Epochs[i]
		lowest[ep] = cut
		if b, ok := boundary[ep]; ok && int32(b) < cut {
			cut = int32(b)
		}
	}
	// Only a serial run checkpoints, and it tags every pack with batch
	// 0, so a pack's batch is the boundary of the last checkpoint or
	// restore marker its host emitted before it. Each host's events are
	// still in emission order here. A pipelined run emits no markers and
	// tags its packs itself.
	type hostEpoch struct{ origin, epoch int32 }
	mark := make(map[hostEpoch]int32)
	for _, e := range events {
		k := hostEpoch{e.Origin, e.Epoch}
		if e.Kind == obs.KindElastic {
			mark[k] = e.Batch
		}
		if e.Kind != obs.KindPhase || e.Phase != obs.PhasePack {
			continue
		}
		batch, ok := mark[k]
		if !ok {
			batch = e.Batch
		}
		if batch >= lowest[int(e.Epoch)] {
			m.Report.DiscardedBytes += e.Bytes
			m.Report.DiscardedMessages += e.Messages
		} else {
			m.Report.CommittedBytes += e.Bytes
			m.Report.CommittedMessages += e.Messages
		}
	}
	return nil
}

// mergeLess is the deterministic total order of a merged trace:
// epoch-major, then the coordinator-serial seq, then content fields.
// Origin is the final tie-break, so the same logical event recorded by
// two hosts (cluster-wide exchange slices, elastic marks) sorts by
// recording host.
func mergeLess(a, b obs.Event) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch < b.Epoch
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
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
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	if a.Host != b.Host {
		return a.Host < b.Host
	}
	if a.Peer != b.Peer {
		return a.Peer < b.Peer
	}
	if a.V != b.V {
		return a.V < b.V
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Origin < b.Origin
}

// Encode writes the merged trace as JSONL: a cluster header (Host −1)
// followed by the ordered events.
func (m *Merged) Encode(w io.Writer) error {
	hdr := obs.Header(-1, m.Hosts, 0)
	if len(m.Report.Epochs) > 0 {
		hdr.Epoch = int32(m.Report.Epochs[0])
	}
	if err := obs.WriteJSONL(w, []obs.Event{hdr}); err != nil {
		return err
	}
	return obs.WriteJSONL(w, m.Events)
}

// MergeFiles loads and merges per-host trace files.
func MergeFiles(paths []string) (*Merged, error) {
	traces := make([]HostTrace, 0, len(paths))
	for _, p := range paths {
		ht, err := Load(p)
		if err != nil {
			return nil, err
		}
		traces = append(traces, ht)
	}
	return Merge(traces)
}
