// Package par fans index-addressed work out over the process's cores.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is how many goroutines Do runs n calls on: GOMAXPROCS, or n when
// that is smaller.
func Workers(n int) int { return min(runtime.GOMAXPROCS(0), n) }

// Do calls f(0) … f(n-1), Workers(n) at a time, and returns once every
// worker has exited, with the error of the lowest failing index. Workers
// claim indexes in order from one counter and stop claiming after a failure,
// so every index below a failing one has run to completion. The caller's
// goroutine is one of the workers: with one worker f runs in-line.
func Do(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = f(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < Workers(n); w++ {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
