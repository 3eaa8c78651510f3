package worklist

import (
	"sync"
	"sync/atomic"
)

// RunOrdered runs tasks 0..n-1 on up to workers goroutines, each with
// the compute/retire pair one newWorker call hands it. A worker
// claims the next index, computes it concurrently with the others, then
// retires it in its turn: retire(i) runs only after retire(i-1)
// returned, never two at once. A panic anywhere stops further claims,
// wakes every worker waiting for a turn the lost task would never pass
// on, and is re-raised on the caller once all workers have exited. One
// worker is a plain loop on the caller.
func RunOrdered(n, workers int, newWorker func() (compute, retire func(i int))) {
	if workers = min(workers, n); workers <= 1 {
		compute, retire := newWorker()
		for i := 0; i < n; i++ {
			compute(i)
			retire(i)
		}
		return
	}
	var (
		next   atomic.Int64
		mu     sync.Mutex
		passed = sync.NewCond(&mu)
		turn   int // the index allowed to retire; guarded by mu
		failed any // first panic value; guarded by mu
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					next.Store(int64(n))
					mu.Lock()
					if failed == nil {
						failed = p
					}
					mu.Unlock()
					passed.Broadcast()
				}
			}()
			compute, retire := newWorker()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				compute(i)
				mu.Lock()
				for turn != i && failed == nil {
					passed.Wait()
				}
				abort := failed != nil
				mu.Unlock()
				if abort {
					return
				}
				retire(i)
				mu.Lock()
				turn++
				mu.Unlock()
				passed.Broadcast()
			}
		}()
	}
	wg.Wait()
	if failed != nil {
		panic(failed)
	}
}
