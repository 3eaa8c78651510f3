package bench

import (
	"strings"
	"testing"
)

func TestSuiteShapes(t *testing.T) {
	for _, scale := range []Scale{Tiny, Full} {
		inputs := Suite(scale)
		if len(inputs) != 8 {
			t.Fatalf("scale %d: %d inputs, want 8 (one per paper input)", scale, len(inputs))
		}
		paper := map[string]bool{}
		small, large := 0, 0
		for _, in := range inputs {
			paper[in.PaperInput] = true
			switch in.Class {
			case "small":
				small++
			case "large":
				large++
			default:
				t.Fatalf("input %s has class %q", in.Name, in.Class)
			}
			if in.NumSources <= 0 || in.Batch <= 0 || in.ABBCChunk <= 0 {
				t.Fatalf("input %s has zero parameters", in.Name)
			}
		}
		// The paper's split: 5 small, 3 large.
		if small != 5 || large != 3 {
			t.Fatalf("split %d/%d, want 5/3", small, large)
		}
		for _, want := range []string{"livejournal", "indochina04", "rmat24",
			"road-europe", "friendster", "kron30", "gsh15", "clueweb12"} {
			if !paper[want] {
				t.Fatalf("missing stand-in for %s", want)
			}
		}
	}
}

func TestSuiteDeterministicBuilds(t *testing.T) {
	inputs := Suite(Tiny)
	for _, in := range inputs {
		a, b := in.Build(), in.Build()
		if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
			t.Fatalf("%s: non-deterministic build", in.Name)
		}
	}
}

func TestFind(t *testing.T) {
	inputs := Suite(Tiny)
	if _, err := Find(inputs, "road"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find(inputs, "nope"); err == nil {
		t.Fatal("expected error for unknown input")
	}
}

func TestTable1Runs(t *testing.T) {
	inputs := Suite(Tiny)[:2]
	rows := Table1(inputs, Tiny)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.V == 0 || r.E == 0 || r.SBBCRounds == 0 || r.MRBCRounds == 0 {
			t.Fatalf("incomplete row: %+v", r)
		}
		// The headline effect: MRBC needs fewer rounds per source.
		if r.MRBCRounds >= r.SBBCRounds {
			t.Fatalf("%s: MRBC %.1f rounds/src not below SBBC %.1f",
				r.Input.Name, r.MRBCRounds, r.SBBCRounds)
		}
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "Table 1") || !strings.Contains(text, rows[0].Input.Name) {
		t.Fatal("format output incomplete")
	}
}

func TestTable2Runs(t *testing.T) {
	inputs := []Input{Suite(Tiny)[0], Suite(Tiny)[6]} // one small, one large
	rows := Table2(inputs, Tiny)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if len(rows[0].Cells) != 4 { // small: ABBC, MFBC, SBBC, MRBC
		t.Fatalf("small input has %d cells", len(rows[0].Cells))
	}
	if len(rows[1].Cells) != 2 { // large: SBBC, MRBC
		t.Fatalf("large input has %d cells", len(rows[1].Cells))
	}
	text := FormatTable2(rows)
	if !strings.Contains(text, "ABBC") || !strings.Contains(text, "MRBC") {
		t.Fatal("format output incomplete")
	}
}

func TestFigure1Runs(t *testing.T) {
	inputs := []Input{Suite(Tiny)[7]} // one large input
	points := Figure1(inputs, Tiny)
	if len(points) != len(BatchSweep(Tiny)) {
		t.Fatalf("points = %d", len(points))
	}
	// Rounds must decrease with batch size on a long-tail input.
	first, last := points[0], points[len(points)-1]
	if last.Rounds >= first.Rounds {
		t.Fatalf("rounds did not fall with batch size: %d -> %d", first.Rounds, last.Rounds)
	}
	if !strings.Contains(FormatFigure1(points), "batch") {
		t.Fatal("format output incomplete")
	}
}

func TestFigure2Runs(t *testing.T) {
	inputs := []Input{Suite(Tiny)[0]}
	bars := Figure2(inputs, "small", Tiny)
	if len(bars) != 2 {
		t.Fatalf("bars = %d", len(bars))
	}
	for _, b := range bars {
		if b.CommBytes == 0 || b.Rounds == 0 {
			t.Fatalf("incomplete bar: %+v", b)
		}
	}
	if !strings.Contains(FormatFigure2(bars, "a"), "Figure 2a") {
		t.Fatal("format output incomplete")
	}
}

func TestFigure3Runs(t *testing.T) {
	inputs := []Input{Suite(Tiny)[6]}
	points := Figure3(inputs, Tiny)
	if len(points) != 2*len(HostSweep(Tiny)) {
		t.Fatalf("points = %d", len(points))
	}
	if !strings.Contains(FormatFigure3(points), "hosts") {
		t.Fatal("format output incomplete")
	}
}

func TestSummarizeRuns(t *testing.T) {
	inputs := Suite(Tiny)[:3]
	s := Summarize(inputs, Tiny)
	if s.Inputs == 0 {
		t.Fatal("no inputs summarized")
	}
	if s.RoundReduction <= 1 {
		t.Fatalf("round reduction %.2f should exceed 1 (MRBC uses fewer rounds)", s.RoundReduction)
	}
	if !strings.Contains(FormatSummary(s), "round reduction") {
		t.Fatal("format output incomplete")
	}
}

func TestHostHelpers(t *testing.T) {
	if HostsAtScale("large", Full) != 8 || HostsAtScale("small", Full) != 4 {
		t.Fatal("wrong at-scale hosts")
	}
	if len(HostSweep(Full)) != 3 || len(BatchSweep(Full)) != 4 {
		t.Fatal("wrong sweeps")
	}
}

// TestModelCheckBoundsHold holds the round model to its word on every
// Tiny input: MRBC within Lemma 8's per-batch bound 2(k+H)+1, SBBC at
// exactly one round per level each way plus the empty last level.
func TestModelCheckBoundsHold(t *testing.T) {
	rows := ModelCheck(Suite(Tiny), Tiny)
	for _, r := range rows {
		if r.MRBCMeasured > r.MRBCPredicted {
			t.Errorf("%s: MRBC measured %d rounds, above the Lemma 8 bound %d",
				r.Input.Name, r.MRBCMeasured, r.MRBCPredicted)
		}
		if r.SBBCMeasured != r.SBBCPredicted {
			t.Errorf("%s: SBBC measured %d rounds, level count Σ(2·ecc+1) = %d",
				r.Input.Name, r.SBBCMeasured, r.SBBCPredicted)
		}
	}
	if !strings.Contains(FormatModel(rows), "Lemma 8") {
		t.Fatal("format output incomplete")
	}
}
