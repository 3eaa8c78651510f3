package merge

import (
	"fmt"
	"sort"

	"mrbc/internal/obs"
)

// LinkKey identifies one directed transfer of one exchange: the pack
// seq is shared by the sent link and its received twin, so the key
// matches them across two hosts' files.
type LinkKey struct {
	Epoch int32
	Seq   int64
	From  int32
	To    int32
}

// Conservation is the cross-host volume proof: every matched link's
// sent tallies equal its received tallies, with the fault/elastic
// layers' recovery volume itemized separately (retransmissions move
// bytes but are not paper-model volume, so they must not appear inside
// the conserved quantities).
type Conservation struct {
	Links    int   `json:"links"`
	Bytes    int64 `json:"bytes"`
	Messages int64 `json:"messages"`
	Dense    int64 `json:"dense"`
	Sparse   int64 `json:"sparse"`
	All      int64 `json:"all"`
	// Itemized recovery volume from transport events (not conserved —
	// a retransmitted byte is delivered once but sent twice).
	RetryMessages int64 `json:"retry_messages,omitempty"`
	RetryBytes    int64 `json:"retry_bytes,omitempty"`
	Redials       int64 `json:"redials,omitempty"`
}

// ConservationError names the first offending link, per the contract
// that a violation is actionable: which sender, which receiver, which
// round, which quantity.
type ConservationError struct {
	From, To, Round int
	Epoch           int
	Field           string
	Sent, Received  int64
}

func (e *ConservationError) Error() string {
	return fmt.Sprintf("conservation violated on link %d->%d round %d (epoch %d): %s sent %d, received %d",
		e.From, e.To, e.Round, e.Epoch, e.Field, e.Sent, e.Received)
}

// CheckConservation proves sent == received for every (from, to,
// round) link of the event stream, per byte, message, and encoding
// count, and aggregates the conserved totals. Run it on a complete
// epoch (a killed epoch legitimately has sent-but-never-received
// links; filter with EpochEvents, or use Merged.CheckFinalEpoch).
// Mismatched or unpaired links are errors.
func CheckConservation(events []obs.Event) (Conservation, error) {
	var c Conservation
	type side struct {
		e   obs.Event
		dup bool
	}
	sent := make(map[LinkKey]side)
	recv := make(map[LinkKey]side)
	for _, e := range events {
		switch e.Kind {
		case obs.KindLink:
			var m map[LinkKey]side
			var k LinkKey
			if e.Phase == obs.PhasePack {
				m, k = sent, LinkKey{e.Epoch, e.Seq, e.Host, e.Peer}
			} else {
				m, k = recv, LinkKey{e.Epoch, e.Seq, e.Peer, e.Host}
			}
			if _, dup := m[k]; dup {
				return c, fmt.Errorf("duplicate %s link %d->%d seq %d (epoch %d)",
					e.Phase, k.From, k.To, e.Seq, e.Epoch)
			}
			m[k] = side{e: e}
		case obs.KindTransport:
			c.RetryMessages += e.Retries
			c.RetryBytes += e.RetryBytes
			c.Redials += e.Redials
		}
	}
	if len(sent) == 0 {
		return c, fmt.Errorf("trace carries no link events (record with a schema-1 tracer)")
	}
	// Deterministic error selection: check links in key order.
	keys := make([]LinkKey, 0, len(sent))
	for k := range sent {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return linkKeyLess(keys[i], keys[j]) })
	for _, k := range keys {
		s := sent[k].e
		r, ok := recv[k]
		if !ok {
			return c, fmt.Errorf("link %d->%d round %d (epoch %d): %d bytes sent but never received",
				k.From, k.To, s.Round, k.Epoch, s.Bytes)
		}
		delete(recv, k)
		for _, f := range [...]struct {
			name       string
			sent, recv int64
		}{
			{"bytes", s.Bytes, r.e.Bytes},
			{"messages", s.Messages, r.e.Messages},
			{"dense messages", s.Dense, r.e.Dense},
			{"sparse messages", s.Sparse, r.e.Sparse},
			{"all-marked messages", s.All, r.e.All},
		} {
			if f.sent != f.recv {
				return c, &ConservationError{
					From: int(k.From), To: int(k.To), Round: int(s.Round), Epoch: int(k.Epoch),
					Field: f.name, Sent: f.sent, Received: f.recv,
				}
			}
		}
		c.Links++
		c.Bytes += s.Bytes
		c.Messages += s.Messages
		c.Dense += s.Dense
		c.Sparse += s.Sparse
		c.All += s.All
	}
	if len(recv) > 0 {
		rks := make([]LinkKey, 0, len(recv))
		for k := range recv {
			rks = append(rks, k)
		}
		sort.Slice(rks, func(i, j int) bool { return linkKeyLess(rks[i], rks[j]) })
		k := rks[0]
		return c, fmt.Errorf("link %d->%d round %d (epoch %d): %d bytes received but never sent",
			k.From, k.To, recv[k].e.Round, k.Epoch, recv[k].e.Bytes)
	}
	return c, nil
}

func linkKeyLess(a, b LinkKey) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch < b.Epoch
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

// CheckPairing verifies that every exchange of the stream was jointly
// executed: each cluster-wide exchange slice (Host −1, one per SPMD
// process) must have been recorded by every host that participated in
// the epoch. A missing origin means a process skipped or died inside
// an exchange its peers completed.
func CheckPairing(events []obs.Event) error {
	type exKey struct {
		epoch int32
		seq   int64
	}
	participants := make(map[int32]map[int32]bool) // epoch → origins seen at all
	exchanges := make(map[exKey]map[int32]bool)    // exchange → origins that recorded it
	rounds := make(map[exKey]int32)
	for _, e := range events {
		if e.Origin == 0 {
			// Unstamped single-process trace: every host's slice is in
			// the one file, pairing across processes is vacuous.
			return nil
		}
		if participants[e.Epoch] == nil {
			participants[e.Epoch] = make(map[int32]bool)
		}
		participants[e.Epoch][e.Origin] = true
		if e.Kind == obs.KindPhase && e.Phase == obs.PhaseExchange && e.Host == -1 {
			k := exKey{e.Epoch, e.Seq}
			if exchanges[k] == nil {
				exchanges[k] = make(map[int32]bool)
			}
			exchanges[k][e.Origin] = true
			rounds[k] = e.Round
		}
	}
	keys := make([]exKey, 0, len(exchanges))
	for k := range exchanges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].epoch != keys[j].epoch {
			return keys[i].epoch < keys[j].epoch
		}
		return keys[i].seq < keys[j].seq
	})
	for _, k := range keys {
		for origin := range participants[k.epoch] {
			if !exchanges[k][origin] {
				return fmt.Errorf("exchange seq %d round %d (epoch %d): host %d never recorded it (%d of %d hosts did)",
					k.seq, rounds[k], k.epoch, origin-1, len(exchanges[k]), len(participants[k.epoch]))
			}
		}
	}
	return nil
}

// CheckFinalEpoch proves the cross-host invariants on the merged
// trace's final epoch, the one that ran to completion: conservation
// (sent == received per link, per encoding), send/recv pairing, and
// the global Lemma 8 round bound. Earlier epochs ended in a host loss,
// so their torn links are legitimately unpaired and stay out of it.
func (m *Merged) CheckFinalEpoch() (epoch int, c Conservation, err error) {
	epoch = m.Report.Epochs[len(m.Report.Epochs)-1]
	evs := EpochEvents(m.Events, epoch)
	if c, err = CheckConservation(evs); err != nil {
		return epoch, c, fmt.Errorf("conservation: %w", err)
	}
	if err := CheckPairing(evs); err != nil {
		return epoch, c, fmt.Errorf("pairing: %w", err)
	}
	if err := obs.CheckRoundBounds(evs, 0); err != nil {
		return epoch, c, fmt.Errorf("round bounds: %w", err)
	}
	return epoch, c, nil
}

// EpochEvents filters a stamped stream down to one epoch.
func EpochEvents(events []obs.Event, epoch int) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if int(e.Epoch) == epoch {
			out = append(out, e)
		}
	}
	return out
}
