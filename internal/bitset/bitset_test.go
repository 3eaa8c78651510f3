package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	if s.Any() {
		t.Fatal("new set should be empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if !s.None() {
		t.Fatal("None should be true for empty set")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative capacity")
		}
	}()
	New(-1)
}

func TestSetTestClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Reset()
	if s.Test(64) || s.Any() {
		t.Fatal("bits still set after Reset")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for name, fn := range map[string]func(){
		"Set":    func() { s.Set(10) },
		"Test":   func() { s.Test(-1) },
		"SetNeg": func() { s.Set(-5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFillAndReset(t *testing.T) {
	s := New(70)
	s.Fill()
	if got := s.Count(); got != 70 {
		t.Fatalf("Count after Fill = %d, want 70", got)
	}
	// Fill must not set bits beyond capacity (trim).
	if s.words[1]>>uint(70-64) != 0 {
		t.Fatal("Fill set bits beyond capacity")
	}
	s.Reset()
	if s.Any() {
		t.Fatal("set not empty after Reset")
	}
}

func TestFillExactWordBoundary(t *testing.T) {
	s := New(128)
	s.Fill()
	if got := s.Count(); got != 128 {
		t.Fatalf("Count = %d, want 128", got)
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backing words that do not match the capacity")
		}
	}()
	FromWords(make([]uint64, 1), 70)
}

func TestNextSet(t *testing.T) {
	s := New(200)
	for _, i := range []int{5, 63, 64, 130, 199} {
		s.Set(i)
	}
	cases := []struct {
		from int
		want int
		ok   bool
	}{
		{0, 5, true}, {5, 5, true}, {6, 63, true}, {64, 64, true},
		{65, 130, true}, {131, 199, true}, {-7, 5, true}, {200, 0, false},
	}
	for _, c := range cases {
		got, ok := s.NextSet(c.from)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("NextSet(%d) = (%d,%v), want (%d,%v)", c.from, got, ok, c.want, c.ok)
		}
	}
	empty := New(10)
	if _, ok := empty.NextSet(0); ok {
		t.Fatal("NextSet on empty set returned a bit")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := New(100)
	s.Set(1)
	s.Set(2)
	s.Set(3)
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if got, want := seen, []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("early stop saw %v, want %v", got, want)
	}
}

func TestString(t *testing.T) {
	s := New(10)
	s.Set(2)
	s.Set(7)
	if got := s.String(); got != "[2 7]" {
		t.Fatalf("String = %q", got)
	}
}

// Property: Slice returns exactly the indices that were set, sorted,
// without duplicates.
func TestQuickSliceMatchesModel(t *testing.T) {
	f := func(idx []uint16) bool {
		s := New(1 << 16)
		model := map[int]bool{}
		for _, i := range idx {
			s.Set(int(i))
			model[int(i)] = true
		}
		got := s.Slice()
		if len(got) != len(model) {
			return false
		}
		prev := -1
		for _, i := range got {
			if !model[i] || i <= prev {
				return false
			}
			prev = i
		}
		return s.Count() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New(500)
	model := map[int]bool{}
	for op := 0; op < 5000; op++ {
		i := rng.Intn(500)
		switch rng.Intn(3) {
		case 0:
			s.Set(i)
			model[i] = true
		case 1:
			if rng.Intn(100) == 0 {
				s.Reset()
				clear(model)
			}
		case 2:
			if s.Test(i) != model[i] {
				t.Fatalf("op %d: Test(%d) = %v, model %v", op, i, s.Test(i), model[i])
			}
		}
	}
	if s.Count() != len(model) {
		t.Fatalf("final Count = %d, model %d", s.Count(), len(model))
	}
}

func BenchmarkSetAndCount(b *testing.B) {
	s := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set(i & (1<<16 - 1))
		if i&1023 == 0 {
			_ = s.Count()
		}
	}
}

func BenchmarkForEach(b *testing.B) {
	s := New(1 << 16)
	for i := 0; i < 1<<16; i += 7 {
		s.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		s.ForEach(func(j int) bool { sum += j; return true })
	}
	_ = sum
}

func TestWordsExposesBacking(t *testing.T) {
	s := New(70)
	s.Set(64)
	w := s.Words()
	if len(w) != 2 || w[1] != 1 {
		t.Fatalf("Words = %v", w)
	}
}

// TestNextSetMatchesForEach pins the word-skipping NextSet iteration —
// the loop the gluon sparse encoder costs and emits with — against the
// reference ForEach enumeration on random sets.
func TestNextSetMatchesForEach(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 {
				s.Set(i)
			}
		}
		var want []int
		s.ForEach(func(i int) bool { want = append(want, i); return true })
		var got []int
		for i, ok := s.NextSet(0); ok; i, ok = s.NextSet(i + 1) {
			got = append(got, i)
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkNextSetSparse pins that iterating a near-empty set skips
// whole empty words: one set bit at the end of a million-bit set should
// cost a linear word scan, not a per-bit scan, and allocate nothing.
func BenchmarkNextSetSparse(b *testing.B) {
	s := New(1 << 20)
	s.Set(1<<20 - 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		for j, ok := s.NextSet(0); ok; j, ok = s.NextSet(j + 1) {
			n++
		}
		if n != 1 {
			b.Fatal("lost the bit")
		}
	}
}

func BenchmarkForEachDense(b *testing.B) {
	s := New(1 << 16)
	for i := 0; i < s.Len(); i += 2 {
		s.Set(i)
	}
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		s.ForEach(func(j int) bool { sink += j; return true })
	}
	_ = sink
}
