package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrbc/internal/obs"
)

// writeHostFiles writes per-host stamped trace files shaped like a
// hosts-process SPMD run with E exchanges: header first, then per-host
// phase slices, per-pair links, and the duplicated cluster-wide
// exchange and batch events every bcd process records.
func writeHostFiles(t *testing.T, dir string, hosts, exchanges int) []string {
	t.Helper()
	sent := func(from, to, i int) int64 { return int64(100 + 10*from + to + i) }
	paths := make([]string, hosts)
	for h := 0; h < hosts; h++ {
		evs := []obs.Event{obs.Header(h, hosts, 0)}
		for i := 0; i < exchanges; i++ {
			seq := int64(3*i + 1)
			round := int32(i + 1)
			start := int64(1_000_000*i + 500)
			evs = append(evs, obs.Event{Kind: obs.KindPhase, Seq: seq, Round: round,
				Host: int32(h), Phase: obs.PhaseCompute,
				StartNs: start, DurNs: int64(10_000 * (h + 1))})
			var packed, recvd int64
			for p := 0; p < hosts; p++ {
				if p == h {
					continue
				}
				packed += sent(h, p, i)
				recvd += sent(p, h, i)
				evs = append(evs,
					obs.Event{Kind: obs.KindLink, Seq: seq + 1, Round: round,
						Host: int32(h), Peer: int32(p), Phase: obs.PhasePack,
						Bytes: sent(h, p, i), Messages: 1, Dense: 1},
					obs.Event{Kind: obs.KindLink, Seq: seq + 1, Round: round,
						Host: int32(h), Peer: int32(p), Phase: obs.PhaseUnpack,
						Bytes: sent(p, h, i), Messages: 1, Dense: 1})
			}
			evs = append(evs,
				obs.Event{Kind: obs.KindPhase, Seq: seq + 1, Round: round,
					Host: int32(h), Phase: obs.PhasePack, Bytes: packed,
					Messages: int64(hosts - 1), Dense: int64(hosts - 1),
					StartNs: start + 50_000, DurNs: 5_000},
				obs.Event{Kind: obs.KindPhase, Seq: seq + 2, Round: round,
					Host: int32(h), Phase: obs.PhaseUnpack, Bytes: recvd,
					Messages: int64(hosts - 1),
					StartNs:  start + 70_000, DurNs: 5_000},
				obs.Event{Kind: obs.KindPhase, Seq: seq + 1, Round: round,
					Host: -1, Phase: obs.PhaseExchange,
					StartNs: start + 50_000, DurNs: 30_000})
		}
		evs = append(evs, obs.Event{Kind: obs.KindBatch, Host: -1, Batch: 0,
			K: 4, FwdRounds: int32(exchanges), BackRounds: int32(exchanges)})
		// Stamp like a bcd tracer would (the header's identity plus
		// per-event origin stamps).
		for j := 1; j < len(evs); j++ {
			evs[j].Origin = int32(h) + 1
		}
		paths[h] = filepath.Join(dir, "host"+string(rune('0'+h))+".jsonl")
		writeTrace(t, paths[h], evs)
	}
	return paths
}

func TestMergeCLIDeterministicAndChecked(t *testing.T) {
	dir := t.TempDir()
	paths := writeHostFiles(t, dir, 3, 4)

	outA := filepath.Join(dir, "a.jsonl")
	code, _, errOut := run(t, "merge", "-check", "-o", outA, paths[0], paths[1], paths[2])
	if code != 0 {
		t.Fatalf("merge failed (%d): %s", code, errOut)
	}
	if !strings.Contains(errOut, "check ok") {
		t.Fatalf("merge -check reported no proof: %s", errOut)
	}
	// Merging the same files again, in a different argument order, must
	// produce the identical file.
	outB := filepath.Join(dir, "b.jsonl")
	if code, _, errOut := run(t, "merge", "-o", outB, paths[2], paths[0], paths[1]); code != 0 {
		t.Fatalf("second merge failed (%d): %s", code, errOut)
	}
	a, err := os.ReadFile(outA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(outB)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("merged cluster trace is not byte-identical across merges")
	}
}

func TestMergeCLIRejectsPerturbedLink(t *testing.T) {
	dir := t.TempDir()
	paths := writeHostFiles(t, dir, 2, 3)
	// Flip one received byte count on host 1: conservation must name
	// the link and fail the command.
	events := mustLoad(t, paths[1])
	for i := range events {
		if events[i].Kind == obs.KindLink && events[i].Phase == obs.PhaseUnpack {
			events[i].Bytes++
			break
		}
	}
	writeTrace(t, paths[1], append([]obs.Event{obs.Header(1, 2, 0)}, events...))
	code, _, errOut := run(t, "merge", "-check", "-o", filepath.Join(dir, "m.jsonl"), paths[0], paths[1])
	if code != 1 {
		t.Fatalf("merge -check accepted a perturbed trace (%d)", code)
	}
	if !strings.Contains(errOut, "conservation violated on link 0->1 round 1") {
		t.Fatalf("violation does not name the link: %s", errOut)
	}
}

// TestRoundsCLIBlamesSlowHost reads one cluster run's per-host files
// and their merge: the two reports are byte-identical, and every round
// is charged its one exchange and blamed on the slow host.
func TestRoundsCLIBlamesSlowHost(t *testing.T) {
	dir := t.TempDir()
	paths := writeHostFiles(t, dir, 3, 4)
	merged := filepath.Join(dir, "m.jsonl")
	if code, _, errOut := run(t, "merge", "-o", merged, paths[0], paths[1], paths[2]); code != 0 {
		t.Fatalf("merge failed: %s", errOut)
	}
	code, out, errOut := run(t, "rounds", merged)
	if code != 0 {
		t.Fatalf("rounds failed (%d): %s", code, errOut)
	}
	// Host 2's compute is the longest every round, so it must head the
	// blame table with all 4 rounds; each round's wall is host 2's
	// 30µs compute plus the one 30µs exchange every host recorded.
	for _, want := range []string{
		"rounds     4\n",
		"wall.total 240µs\n",
		"host 2       4 rounds",
		"exchange.total 120µs\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rounds output missing %q:\n%s", want, out)
		}
	}
	code, out2, errOut := run(t, "rounds", paths[0], paths[1], paths[2])
	if code != 0 {
		t.Fatalf("rounds on host files failed (%d): %s", code, errOut)
	}
	if out != out2 {
		t.Fatalf("rounds(merged) != rounds(host files):\n%s\nvs\n%s", out, out2)
	}
}

func TestSummaryMultiFilePerHost(t *testing.T) {
	dir := t.TempDir()
	paths := writeHostFiles(t, dir, 2, 3)
	code, out, errOut := run(t, "summary", paths[0], paths[1])
	if code != 0 {
		t.Fatalf("multi-file summary failed (%d): %s", code, errOut)
	}
	if !strings.Contains(out, "host  pack.bytes") {
		t.Fatalf("summary lacks the per-host breakdown:\n%s", out)
	}
	// Over the full host set the cluster balance closes; a single
	// host's slice legitimately doesn't, and must not be an error.
	code, out, errOut = run(t, "summary", paths[0])
	if code != 0 {
		t.Fatalf("single-slice summary failed (%d): %s", code, errOut)
	}
	if !strings.Contains(out, "single-host slice") {
		t.Fatalf("single-slice summary missing the note:\n%s", out)
	}
}

// TestEverySubcommandReadsTornTraces runs each subcommand on host 0's
// file three ways: intact; torn, with a partial line and no newline
// after it, as a host killed mid-write leaves it; and corrupt, with a
// malformed interior line. The torn file must give the intact file's
// output, the corrupt one must fail naming the line.
func TestEverySubcommandReadsTornTraces(t *testing.T) {
	dir := t.TempDir()
	paths := writeHostFiles(t, dir, 2, 3)
	intact, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(torn, append(append([]byte(nil), intact...), `{"kind":"phase","seq":10,"ro`...), 0o644); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(intact), "\n")
	corrupt := filepath.Join(dir, "corrupt.jsonl")
	if err := os.WriteFile(corrupt, []byte(strings.Join(lines[:3], "")+"{\"kind\":\n"+strings.Join(lines[3:], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "merged.jsonl")
	for _, tc := range []struct {
		name string
		args func(host0 string) []string
	}{
		{"summary", func(p string) []string { return []string{"summary", p, paths[1]} }},
		{"imbalance", func(p string) []string { return []string{"imbalance", p, paths[1]} }},
		{"rounds", func(p string) []string { return []string{"rounds", p} }},
		{"check", func(p string) []string { return []string{"check", p} }},
		{"diff", func(p string) []string { return []string{"diff", paths[0], p} }},
		{"merge", func(p string) []string { return []string{"merge", "-check", "-o", out, p, paths[1]} }},
		{"rounds-files", func(p string) []string { return []string{"rounds", p, paths[1]} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, want, errOut := run(t, tc.args(paths[0])...)
			if code != 0 {
				t.Fatalf("intact trace failed (%d): %s", code, errOut)
			}
			code, got, errOut := run(t, tc.args(torn)...)
			if code != 0 {
				t.Fatalf("torn trace failed (%d): %s", code, errOut)
			}
			if got != want {
				t.Fatalf("torn trace output differs from the intact one:\n%s\nvs\n%s", got, want)
			}
			code, _, errOut = run(t, tc.args(corrupt)...)
			if code != 1 || !strings.Contains(errOut, "line 4") {
				t.Fatalf("corrupt interior line: exit %d, stderr %q; want exit 1 naming line 4", code, errOut)
			}
		})
	}
}
