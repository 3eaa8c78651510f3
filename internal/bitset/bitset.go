// Package bitset provides a dense, fixed-capacity bit vector.
//
// It backs the Gluon metadata of the paper's D-Galois implementation
// (Section 4.3) that identifies which proxies carry updated labels in a
// communication round, and the per-round vertex sets of the MRBC and
// SBBC hosts. WordsFor sizes the bit rows the MRBC engine slab-allocates
// for its sent and unsent (vertex, source) labels.
package bitset

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Set is a dense bit vector with a fixed capacity chosen at creation.
// The zero value is an empty set of capacity zero; use New for a usable
// set. Set is not safe for concurrent mutation.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set capable of holding bits [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// WordsFor returns the number of backing words a set of capacity n uses,
// for callers that slab-allocate storage for many sets (see FromWords).
func WordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// FromWords returns a set of capacity n backed by the given slice, whose
// length must be exactly WordsFor(n). The caller owns the storage; this
// lets engines carve thousands of small sets out of one allocation. The
// words are used as-is (pass a zeroed slice for an empty set).
func FromWords(words []uint64, n int) Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	if len(words) != WordsFor(n) {
		panic(fmt.Sprintf("bitset: %d backing words for capacity %d, need %d", len(words), n, WordsFor(n)))
	}
	return Set{words: words, n: n}
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether no bit is set.
func (s *Set) None() bool { return !s.Any() }

// Reset clears all bits.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets all bits in [0, Len()).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes bits at positions >= n in the last word.
func (s *Set) trim() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// NextSet returns the index of the first set bit at position >= i, and
// whether one exists.
func (s *Set) NextSet(i int) (int, bool) {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return 0, false
	}
	w := i / wordBits
	word := s.words[w] >> uint(i%wordBits)
	if word != 0 {
		return i + bits.TrailingZeros64(word), true
	}
	for w++; w < len(s.words); w++ {
		if s.words[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(s.words[w]), true
		}
	}
	return 0, false
}

// ForEach calls fn for every set bit in increasing order. If fn returns
// false, iteration stops.
func (s *Set) ForEach(fn func(i int) bool) {
	for w, word := range s.words {
		for word != 0 {
			i := w*wordBits + bits.TrailingZeros64(word)
			if !fn(i) {
				return
			}
			word &= word - 1
		}
	}
}

// Slice returns the indices of all set bits in increasing order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Words exposes the raw backing words (read-only by convention); used
// by serialization code in the gluon substrate.
func (s *Set) Words() []uint64 { return s.words }

// String renders the set as {i, j, ...} for debugging.
func (s *Set) String() string {
	return fmt.Sprintf("%v", s.Slice())
}
