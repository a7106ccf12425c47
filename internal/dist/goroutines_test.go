package dist_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"secureblox/internal/core"
)

// goroutinesByFunc counts the process's goroutines by the function each was
// started with: the outermost frame of its stack. A goroutine created but not
// yet scheduled shows only a wrapper, so it waits (up to a second) for every
// goroutine to have run.
func goroutinesByFunc() map[string]int {
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		counts := make(map[string]int)
		for _, g := range strings.Split(allStacks(), "\n\n") {
			fn := ""
			for _, line := range strings.Split(g, "\n")[1:] {
				if strings.HasPrefix(line, "created by ") {
					break
				}
				if line != "" && !strings.HasPrefix(line, "\t") {
					fn = line[:strings.LastIndexByte(line, '(')]
				}
			}
			counts[fn]++
		}
		if counts["runtime.goexit"] == 0 || time.Now().After(deadline) {
			return counts
		}
	}
}

// allStacks is the stack dump of every goroutine.
func allStacks() string {
	for buf := make([]byte, 1<<16); ; buf = make([]byte, 2*len(buf)) {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return string(buf[:n])
		}
	}
}

// started returns the functions of this program that gained goroutines from
// before to after, with how many. Goroutines outside the program, and ones
// that ended meanwhile (another test's leftovers), do not count.
func started(before, after map[string]int) map[string]int {
	out := make(map[string]int)
	for fn, n := range after {
		if d := n - before[fn]; d > 0 && strings.HasPrefix(fn, "secureblox/") {
			out[fn] = d
		}
	}
	return out
}

// TestStartedNodeRunsOneGoroutine: a node is its transaction loop and nothing
// else — under every authentication scheme, starting a cluster adds exactly
// one goroutine per node, the loop, and building one starts no crypto worker:
// the RSA memos sign and verify on the goroutine that asks.
func TestStartedNodeRunsOneGoroutine(t *testing.T) {
	const n = 3
	for _, pol := range []core.PolicyConfig{
		{Auth: core.AuthNone},
		{Auth: core.AuthHMAC},
		{Auth: core.AuthRSA},
		{Auth: core.AuthRSA, BatchSign: true},
	} {
		pol.Delegation = core.DelegateNone
		t.Run(pol.Name(), func(t *testing.T) {
			g0 := goroutinesByFunc()
			c, err := core.NewCluster(core.ClusterConfig{N: n, Policy: pol, Query: adversaryQuery, Seed: 5})
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			defer c.Stop()
			g1 := goroutinesByFunc()
			for fn, k := range started(g0, g1) {
				if strings.HasPrefix(fn, "secureblox/internal/seccrypto.") {
					t.Errorf("NewCluster started %d goroutines running %s", k, fn)
				}
			}
			c.Start()
			got := started(g1, goroutinesByFunc())
			if want := "secureblox/internal/dist.(*Node).run"; len(got) != 1 || got[want] != n {
				t.Errorf("starting %d nodes started %v, want %d goroutines running %s and nothing else", n, got, n, want)
			}
		})
	}
}
