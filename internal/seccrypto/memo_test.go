package seccrypto

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// poolUnderTest drives SignPool and VerifyPool through their public methods
// over the i-th of a family of distinct requests; correct reports whether
// the request returned what the direct RSA call returns.
type poolUnderTest[A, R any] struct {
	memo    *memo[A, R]
	correct func(i int) bool
	ops     func() int64 // process-wide count of the pool's RSA operation
}

func signPoolUnderTest(t *testing.T) poolUnderTest[signArgs, signResult] {
	priv, err := GenerateRSAKey(NewDeterministicRand(21))
	if err != nil {
		t.Fatal(err)
	}
	der := MarshalPrivateKey(priv)
	p := NewSignPool()
	data := func(i int) []byte { return []byte(fmt.Sprintf("digest-%d", i)) }
	return poolUnderTest[signArgs, signResult]{
		memo: p.memo,
		correct: func(i int) bool {
			sig, err := p.Sign(priv, der, data(i))
			return err == nil && RSAVerify(&priv.PublicKey, data(i), sig)
		},
		ops: cSignOps.Value,
	}
}

func verifyPoolUnderTest(t *testing.T) poolUnderTest[verifyArgs, bool] {
	priv, err := GenerateRSAKey(NewDeterministicRand(22))
	if err != nil {
		t.Fatal(err)
	}
	pub, der := &priv.PublicKey, MarshalPublicKey(&priv.PublicKey)
	good, err := RSASign(priv, []byte("signed"))
	if err != nil {
		t.Fatal(err)
	}
	// Request i carries a distinct signature; only request 0's is valid.
	sig := func(i int) []byte {
		s := append([]byte(nil), good...)
		s[0] ^= byte(i)
		s[1] ^= byte(i >> 8)
		return s
	}
	p := NewVerifyPool()
	return poolUnderTest[verifyArgs, bool]{
		memo:    p.memo,
		correct: func(i int) bool { return p.Verify(pub, der, []byte("signed"), sig(i)) == (i == 0) },
		ops:     cVerifyOps.Value,
	}
}

// since returns a function reporting the hits and misses the memo's families
// gained after the call (the families are process-wide, so tests read deltas).
func (m *memo[A, R]) since() func() (hits, misses int64) {
	h0, m0 := m.hits.Value(), m.misses.Value()
	return func() (int64, int64) { return m.hits.Value() - h0, m.misses.Value() - m0 }
}

// TestMemoPoolContract runs the two guarantees the callers rely on over both
// pools: concurrent requests for one key compute once and all get that
// result, and pruning never evicts an entry in flight.
func TestMemoPoolContract(t *testing.T) {
	t.Run("sign", func(t *testing.T) {
		testMemoPoolContract(t, func() poolUnderTest[signArgs, signResult] { return signPoolUnderTest(t) })
	})
	t.Run("verify", func(t *testing.T) {
		testMemoPoolContract(t, func() poolUnderTest[verifyArgs, bool] { return verifyPoolUnderTest(t) })
	})
}

func testMemoPoolContract[A, R any](t *testing.T, newPool func() poolUnderTest[A, R]) {
	t.Run("waiters get the first caller's result", func(t *testing.T) {
		p := newPool()
		// The first caller blocks inside its computation until every other
		// caller has found its entry, so they all wait on it.
		const callers = 4
		gate := make(chan struct{})
		compute := p.memo.compute
		p.memo.compute = func(a A) R { <-gate; return compute(a) }
		counts := p.memo.since()
		before := p.ops()
		var wg sync.WaitGroup
		wrong := make(chan int, callers)
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !p.correct(0) {
					wrong <- i
				}
			}()
		}
		for hits, _ := counts(); hits < callers-1; hits, _ = counts() {
			runtime.Gosched()
		}
		close(gate)
		wg.Wait()
		close(wrong)
		for i := range wrong {
			t.Errorf("caller %d got a wrong result", i)
		}
		if ops := p.ops() - before; ops != 1 {
			t.Errorf("%d RSA operations for %d concurrent requests of one key, want 1", ops, callers)
		}
		if hits, misses := counts(); hits != callers-1 || misses != 1 {
			t.Errorf("hits=%d misses=%d, want %d and 1", hits, misses, callers-1)
		}
	})

	t.Run("pruning keeps entries in flight", func(t *testing.T) {
		p := newPool()
		inflight := &memoEntry[R]{done: make(chan struct{})}
		defer close(inflight.done)
		var inflightKey [32]byte
		inflightKey[0] = 0xAB
		p.memo.mu.Lock()
		p.memo.maxSize = 8
		p.memo.cache[inflightKey] = inflight
		p.memo.mu.Unlock()
		for i := 0; i < 40; i++ {
			if !p.correct(i) {
				t.Fatalf("request %d: wrong result", i)
			}
			p.memo.mu.Lock()
			n := len(p.memo.cache)
			_, kept := p.memo.cache[inflightKey]
			p.memo.mu.Unlock()
			// The entry being inserted is itself in flight while pruning runs,
			// so the bound is maxSize plus the current insertion.
			if n > 8+1 {
				t.Fatalf("cache grew to %d entries, want <= maxSize+1", n)
			}
			if !kept {
				t.Fatal("in-flight entry was evicted")
			}
		}
	})
}
