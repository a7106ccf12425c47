package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settle waits for goroutines that have signalled completion to be gone.
func settle(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func TestDoRunsEveryIndexOnceOnBoundedWorkers(t *testing.T) {
	const n = 200
	var ran [n]atomic.Int32
	var live, peak atomic.Int32
	before := runtime.NumGoroutine()
	err := Do(n, func(i int) error {
		l := live.Add(1)
		for p := peak.Load(); l > p && !peak.CompareAndSwap(p, l); p = peak.Load() {
		}
		ran[i].Add(1)
		runtime.Gosched()
		live.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if c := ran[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
	if p, w := int(peak.Load()), Workers(n); p > w {
		t.Errorf("%d calls in flight at once, want at most %d workers", p, w)
	}
	if now := settle(before); now > before {
		t.Errorf("workers outlive Do: %d goroutines before, %d after", before, now)
	}
	if err := Do(0, func(int) error { return errors.New("called") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
}

func TestDoReturnsLowestFailingIndexAfterEveryWorkerExits(t *testing.T) {
	const n, first = 256, 7
	var ran [n]atomic.Bool
	before := runtime.NumGoroutine()
	err := Do(n, func(i int) error {
		ran[i].Store(true)
		if i >= first {
			return fmt.Errorf("index %d", i)
		}
		// Let the failures above race the successes below them.
		time.Sleep(time.Duration(first-i) * 200 * time.Microsecond)
		return nil
	})
	if err == nil || err.Error() != fmt.Sprintf("index %d", first) {
		t.Fatalf("want index %d's error, got %v", first, err)
	}
	for i := 0; i < first; i++ {
		if !ran[i].Load() {
			t.Errorf("index %d below the failing one did not run", i)
		}
	}
	// Each worker can have claimed one index before the failure and one
	// more between its check and the flag being set; nothing beyond.
	for i := first + 2*Workers(n); i < n; i++ {
		if ran[i].Load() {
			t.Fatalf("index %d was claimed after index %d failed", i, first)
		}
	}
	if now := settle(before); now > before {
		t.Errorf("workers outlive a failed Do: %d goroutines before, %d after", before, now)
	}
}

// With one worker there is no fan-out to pay for: f runs on the caller's
// goroutine, in index order, and stops at the first error.
func TestDoRunsInlineOnOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if w := Workers(24); w != 1 {
		t.Fatalf("Workers(24) = %d at GOMAXPROCS 1", w)
	}
	before := runtime.NumGoroutine()
	var order []int
	err := Do(24, func(i int) error {
		if g := runtime.NumGoroutine(); g != before {
			t.Errorf("index %d: %d goroutines, %d before the call", i, g, before)
		}
		order = append(order, i) // no lock: a second worker is a race report
		if i == 9 {
			return errors.New("nine")
		}
		return nil
	})
	if err == nil || err.Error() != "nine" {
		t.Fatalf("want nine, got %v", err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("in-line order %v", order)
		}
	}
	if len(order) != 10 {
		t.Errorf("ran %d calls, want 10 (stop at the first error)", len(order))
	}
}
