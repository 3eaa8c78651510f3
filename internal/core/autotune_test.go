package core

import (
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/gen"
)

func TestAutotuneReturnsACandidate(t *testing.T) {
	g := gen.RMAT(8, 8, 2)
	sources := brandes.FirstKSources(g, 0, 32)
	candidates := []int{4, 8, 16}
	k := AutotuneBatch(g, sources, candidates, 16)
	found := false
	for _, c := range candidates {
		if c == k {
			found = true
		}
	}
	if !found {
		t.Fatalf("autotune returned %d, not among %v", k, candidates)
	}
}

func TestAutotuneDefaults(t *testing.T) {
	g := gen.RMAT(7, 8, 3)
	sources := brandes.FirstKSources(g, 0, 16)
	k := AutotuneBatch(g, sources, nil, 0)
	if k != 16 && k != 32 && k != 64 && k != 128 {
		t.Fatalf("autotune with defaults returned %d", k)
	}
}

func TestAutotuneNoSources(t *testing.T) {
	g := gen.Path(4)
	if k := AutotuneBatch(g, nil, []int{7, 9}, 8); k != 7 {
		t.Fatalf("empty sources should return the first candidate, got %d", k)
	}
}

func TestAutotuneSkipsNonPositiveCandidates(t *testing.T) {
	g := gen.Path(6)
	sources := brandes.FirstKSources(g, 0, 4)
	if k := AutotuneBatch(g, sources, []int{0, -3, 2}, 4); k != 2 {
		t.Fatalf("autotune returned %d, want 2", k)
	}
}
