package worklist

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderedRetire drives the batch-parallel loop with injected tasks:
// every task is computed once and retired once, in index order, however
// the computes interleave — the later a task, the sooner it finishes
// here, so every worker but the first waits for its turn.
func TestOrderedRetire(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 20} {
		const n = 12
		var computed [n]atomic.Int32
		var retired []int
		RunOrdered(n, workers, func() (compute, retire func(int)) {
			return func(i int) {
					time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
					computed[i].Add(1)
				},
				func(i int) { retired = append(retired, i) } // unsynchronized: -race checks the turn
		})
		for i := range computed {
			if c := computed[i].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d computed %d times", workers, i, c)
			}
		}
		if fmt.Sprint(retired) != "[0 1 2 3 4 5 6 7 8 9 10 11]" {
			t.Fatalf("workers=%d: retired in order %v", workers, retired)
		}
	}
}

// TestOrderedRetirePanic: an ordered retire that loses a task would
// leave every later task waiting for a turn that never comes. A panic
// in compute — or in retire — of batch 3 of 8 must instead reach the
// caller as that panic value, promptly, with no goroutine left behind.
func TestOrderedRetirePanic(t *testing.T) {
	for _, where := range []string{"compute", "retire"} {
		for _, workers := range []int{1, 2, 3, 8} {
			before := runtime.NumGoroutine()
			var retired []int
			caught := make(chan any, 1)
			go func() {
				defer func() { caught <- recover() }()
				boom := func(at string, i int) {
					if at == where && i == 3 {
						panic(fmt.Sprintf("batch %d lost in %s", i, at))
					}
				}
				RunOrdered(8, workers, func() (compute, retire func(int)) {
					return func(i int) { boom("compute", i) },
						func(i int) { boom("retire", i); retired = append(retired, i) }
				})
			}()
			select {
			case p := <-caught:
				if want := "batch 3 lost in " + where; p != want {
					t.Fatalf("%s, workers=%d: caller saw %v, want %q", where, workers, p, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, workers=%d: RunOrdered hung after a lost batch", where, workers)
			}
			// Batches computed before the loss may or may not have retired.
			if !strings.HasPrefix("[0 1 2]", strings.TrimSuffix(fmt.Sprint(retired), "]")) {
				t.Fatalf("%s, workers=%d: retired %v around the lost batch, want a prefix of [0 1 2]", where, workers, retired)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%s, workers=%d: %d goroutines before, %d after", where, workers, before, after)
			}
		}
	}
}
