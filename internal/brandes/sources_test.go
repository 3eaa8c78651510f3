package brandes

import (
	"fmt"
	"reflect"
	"testing"
)

func TestSourceRange(t *testing.T) {
	for _, c := range []struct {
		name         string
		start, count int
		want         []uint32
	}{
		{"in range", 2, 3, []uint32{2, 3, 4}},
		{"all vertices", 0, 0, []uint32{0, 1, 2, 3, 4, 5}},
		{"rest from start", 4, 0, []uint32{4, 5}},
		{"negative count", 3, -2, []uint32{3, 4, 5}},
		{"clamped", 4, 32, []uint32{4, 5}},
		{"last vertex", 5, 1, []uint32{5}},
	} {
		got, err := SourceRange(6, c.start, c.count)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: SourceRange(6, %d, %d) = %v, %v; want %v", c.name, c.start, c.count, got, err, c.want)
		}
	}
	for _, start := range []int{6, 100, -3} {
		got, err := SourceRange(6, start, 4)
		want := fmt.Sprintf("no sources in [%d, 6)", start)
		if err == nil || err.Error() != want {
			t.Fatalf("start %d: got %v, %v; want error %q", start, got, err, want)
		}
	}
}
