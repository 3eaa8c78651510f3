package obs

import "testing"

func feedAll(events []Event, obs ...interface{ Observe(Event) }) {
	for _, e := range events {
		for _, o := range obs {
			o.Observe(e)
		}
	}
}

func TestImbalanceAccumReport(t *testing.T) {
	events := []Event{
		// Dispatch seq 1: hosts 0/1 compute 30/10 ns -> mean 20, ratio 1.5.
		{Kind: KindPhase, Seq: 1, Round: 1, Host: 0, Phase: PhaseCompute, DurNs: 30},
		{Kind: KindPhase, Seq: 1, Round: 1, Host: 1, Phase: PhaseCompute, DurNs: 10},
		// Dispatch seq 2: host 1 idle (excluded), host 0 alone -> ratio 1.
		{Kind: KindPhase, Seq: 2, Round: 1, Host: 0, Phase: PhaseCompute, DurNs: 40},
		{Kind: KindPhase, Seq: 2, Round: 1, Host: 1, Phase: PhaseCompute, DurNs: 0},
		// Non-compute events are ignored.
		{Kind: KindPhase, Seq: 3, Round: 1, Host: 0, Phase: PhaseBarrier, DurNs: 99},
		{Kind: KindSend, Round: 1, Host: 0},
	}
	var a ImbalanceAccum
	feedAll(events, &a)
	r := a.Report()
	if r.Phases != 2 {
		t.Fatalf("phases = %d, want 2", r.Phases)
	}
	if want := (1.5 + 1.0) / 2; r.Mean != want {
		t.Fatalf("mean = %v, want %v", r.Mean, want)
	}
	if r.MaxRatio != 1.5 {
		t.Fatalf("max ratio = %v, want 1.5", r.MaxRatio)
	}
	if len(r.PerHost) != 2 || r.PerHost[0] != (HostLoad{Host: 0, ComputeNs: 70}) ||
		r.PerHost[1] != (HostLoad{Host: 1, ComputeNs: 10}) {
		t.Fatalf("per-host loads = %+v", r.PerHost)
	}
}

func TestImbalanceAccumEmpty(t *testing.T) {
	var a ImbalanceAccum
	r := a.Report()
	if r.Mean != 1.0 || r.MaxRatio != 1.0 || r.Phases != 0 || len(r.PerHost) != 0 {
		t.Fatalf("empty report = %+v", r)
	}
}

func TestRoundAccumReport(t *testing.T) {
	events := []Event{
		// Round 1: one dispatch (max 30) + exchange 5 -> wall 35; host 0
		// is the critical path, busy 30 against a mean of 20.
		{Kind: KindPhase, Seq: 1, Round: 1, Host: 0, Phase: PhaseCompute, DurNs: 30},
		{Kind: KindPhase, Seq: 1, Round: 1, Host: 1, Phase: PhaseCompute, DurNs: 10},
		{Kind: KindPhase, Seq: 2, Round: 1, Host: -1, Phase: PhaseExchange, DurNs: 5},
		// Round 2: two dispatches (max 10 and 20) -> wall 30; host 1 has
		// the larger total (30 vs 5; mean 17).
		{Kind: KindPhase, Seq: 3, Round: 2, Host: 0, Phase: PhaseCompute, DurNs: 5},
		{Kind: KindPhase, Seq: 3, Round: 2, Host: 1, Phase: PhaseCompute, DurNs: 10},
		{Kind: KindPhase, Seq: 4, Round: 2, Host: 1, Phase: PhaseCompute, DurNs: 20},
		// Barrier slices never contribute.
		{Kind: KindPhase, Seq: 3, Round: 2, Host: 0, Phase: PhaseBarrier, DurNs: 99},
	}
	var a RoundAccum
	feedAll(events, &a)
	r := a.Report()
	if len(r.Rounds) != 2 {
		t.Fatalf("rounds = %+v", r.Rounds)
	}
	if r.Rounds[0] != (RoundCost{Round: 1, WallNs: 35, ExchangeNs: 5, Host: 0, BoundNs: 30, MeanNs: 20}) {
		t.Fatalf("round 1 = %+v", r.Rounds[0])
	}
	if r.Rounds[1] != (RoundCost{Round: 2, WallNs: 30, Host: 1, BoundNs: 30, MeanNs: 17}) {
		t.Fatalf("round 2 = %+v", r.Rounds[1])
	}
	if len(r.Blame) != 2 || r.Blame[0] != (HostBound{Host: 0, Rounds: 1, BoundNs: 30, Share: 0.5}) ||
		r.Blame[1] != (HostBound{Host: 1, Rounds: 1, BoundNs: 30, Share: 0.5}) {
		t.Fatalf("blame = %+v", r.Blame)
	}
}

// TestRoundAccumCountsEachExchangeOnce folds three origins that each
// recorded their slice of one exchange: the round's exchange is the
// bounding origin's 30 ns, not the 60 ns sum.
func TestRoundAccumCountsEachExchangeOnce(t *testing.T) {
	var events []Event
	for h, ex := range []int64{10, 20, 30} {
		events = append(events,
			Event{Kind: KindPhase, Seq: 1, Round: 1, Host: int32(h), Phase: PhaseCompute, DurNs: 5, Origin: int32(h) + 1},
			Event{Kind: KindPhase, Seq: 2, Round: 1, Host: -1, Phase: PhaseExchange, DurNs: ex, HiddenNs: ex / 10, Origin: int32(h) + 1})
	}
	var a RoundAccum
	feedAll(events, &a)
	r := a.Report()
	if len(r.Rounds) != 1 {
		t.Fatalf("rounds = %+v", r.Rounds)
	}
	if c := r.Rounds[0]; c.WallNs != 35 || c.ExchangeNs != 30 || c.HiddenNs != 3 {
		t.Fatalf("round = %+v, want wall 35, exchange 30, hidden 3 (origin 3's)", c)
	}
}

// TestRoundAccumSeparatesEpochs folds two epochs that reuse round
// numbers: each (epoch, round) is its own round, and each epoch's
// round 0 is setup.
func TestRoundAccumSeparatesEpochs(t *testing.T) {
	var events []Event
	for ep := int32(0); ep < 2; ep++ {
		for round := int32(0); round < 3; round++ {
			events = append(events, Event{Kind: KindPhase, Seq: int64(round), Round: round, Epoch: ep,
				Host: 0, Phase: PhaseCompute, DurNs: int64(10*ep + round), Origin: 1})
		}
	}
	var a RoundAccum
	feedAll(events, &a)
	r := a.Report()
	if len(r.Setup) != 2 || len(r.Rounds) != 4 {
		t.Fatalf("setup %+v, rounds %+v; want 2 setups and 4 rounds", r.Setup, r.Rounds)
	}
	for i, want := range []RoundCost{
		{Epoch: 0, Round: 1, WallNs: 1, Host: 0, BoundNs: 1, MeanNs: 1},
		{Epoch: 0, Round: 2, WallNs: 2, Host: 0, BoundNs: 2, MeanNs: 2},
		{Epoch: 1, Round: 1, WallNs: 11, Host: 0, BoundNs: 11, MeanNs: 11},
		{Epoch: 1, Round: 2, WallNs: 12, Host: 0, BoundNs: 12, MeanNs: 12},
	} {
		if r.Rounds[i] != want {
			t.Fatalf("round %d = %+v, want %+v", i, r.Rounds[i], want)
		}
	}
}

// TestRoundAccumBusyTimeCountsPackAndUnpack blames the host whose
// pack and unpack outweigh another host's larger compute.
func TestRoundAccumBusyTimeCountsPackAndUnpack(t *testing.T) {
	events := []Event{
		{Kind: KindPhase, Seq: 1, Round: 1, Host: 0, Phase: PhaseCompute, DurNs: 30},
		{Kind: KindPhase, Seq: 1, Round: 1, Host: 1, Phase: PhaseCompute, DurNs: 20},
		{Kind: KindPhase, Seq: 2, Round: 1, Host: 1, Phase: PhasePack, DurNs: 8},
		{Kind: KindPhase, Seq: 3, Round: 1, Host: 1, Phase: PhaseUnpack, DurNs: 8},
		{Kind: KindPhase, Seq: 2, Round: 1, Host: -1, Phase: PhaseExchange, DurNs: 40},
	}
	var a RoundAccum
	feedAll(events, &a)
	c := a.Report().Rounds[0]
	if c.Host != 1 || c.BoundNs != 36 || c.MeanNs != 33 || c.WallNs != 70 {
		t.Fatalf("round = %+v, want host 1 bound 36, mean 33, wall 70", c)
	}
}

// TestRoundAccumNeverBlamesSetup keeps round 0 out of the blame table.
func TestRoundAccumNeverBlamesSetup(t *testing.T) {
	events := []Event{
		{Kind: KindPhase, Seq: 1, Round: 0, Host: 0, Phase: PhaseCompute, DurNs: 500},
		{Kind: KindPhase, Seq: 2, Round: 1, Host: 0, Phase: PhaseCompute, DurNs: 5},
		{Kind: KindPhase, Seq: 2, Round: 1, Host: 1, Phase: PhaseCompute, DurNs: 7},
	}
	var a RoundAccum
	feedAll(events, &a)
	r := a.Report()
	if len(r.Setup) != 1 || r.Setup[0].WallNs != 500 || len(r.Rounds) != 1 {
		t.Fatalf("setup %+v, rounds %+v", r.Setup, r.Rounds)
	}
	if len(r.Blame) != 1 || r.Blame[0] != (HostBound{Host: 1, Rounds: 1, BoundNs: 7, Share: 1}) {
		t.Fatalf("blame = %+v, want host 1 alone", r.Blame)
	}
}

func TestDiff(t *testing.T) {
	base := sampleEvents()
	if d := Diff(base, base); d.Index != -1 {
		t.Fatalf("identical traces diverge at %d", d.Index)
	}
	// Timings and emission order are canonicalized away.
	shuffled := []Event{base[2], base[0], base[1], base[4], base[3], base[5], base[6]}
	for i := range shuffled {
		shuffled[i].StartNs += 1000
	}
	if d := Diff(base, shuffled); d.Index != -1 {
		t.Fatalf("reordered/retimed trace diverges at %d: %+v vs %+v", d.Index, d.A, d.B)
	}
	// A perturbed payload is localized.
	perturbed := append([]Event(nil), base...)
	for i := range perturbed {
		if perturbed[i].Kind == KindPhase && perturbed[i].Phase == PhasePack {
			perturbed[i].Bytes += 8
		}
	}
	d := Diff(base, perturbed)
	if d.Index < 0 || d.A == nil || d.B == nil {
		t.Fatalf("perturbation not detected: %+v", d)
	}
	if d.A.Bytes+8 != d.B.Bytes {
		t.Fatalf("divergence points at the wrong event: %+v vs %+v", d.A, d.B)
	}
	// A strict prefix reports the first missing event with a nil side.
	d = Diff(base, nil)
	if d.Index != 0 || d.A == nil || d.B != nil {
		t.Fatalf("prefix divergence = %+v", d)
	}
}
