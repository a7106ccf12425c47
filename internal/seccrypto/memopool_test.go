package seccrypto

import (
	"fmt"
	"sync"
	"testing"
)

// poolUnderTest drives SignPool and VerifyPool through their public methods
// over the i-th of a family of distinct requests; correct reports whether
// get(i) returned what the direct RSA call returns.
type poolUnderTest[A, R any] struct {
	memo    *memoPool[A, R]
	warm    func(i int)
	correct func(i int) bool
	ops     func() int64 // process-wide count of the pool's RSA operation
}

func signPoolUnderTest(t *testing.T, workers int) poolUnderTest[signArgs, signResult] {
	priv, err := GenerateRSAKey(NewDeterministicRand(21))
	if err != nil {
		t.Fatal(err)
	}
	der := MarshalPrivateKey(priv)
	p := NewSignPool(workers)
	data := func(i int) []byte { return []byte(fmt.Sprintf("digest-%d", i)) }
	return poolUnderTest[signArgs, signResult]{
		memo: p.memoPool,
		warm: func(i int) { p.Warm(priv, der, data(i)) },
		correct: func(i int) bool {
			sig, err := p.Sign(priv, der, data(i))
			return err == nil && RSAVerify(&priv.PublicKey, data(i), sig)
		},
		ops: cSignOps.Value,
	}
}

func verifyPoolUnderTest(t *testing.T, workers int) poolUnderTest[verifyArgs, bool] {
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
	p := NewVerifyPool(workers)
	return poolUnderTest[verifyArgs, bool]{
		memo:    p.memoPool,
		warm:    func(i int) { p.Warm(pub, der, []byte("signed"), sig(i)) },
		correct: func(i int) bool { return p.Verify(pub, der, []byte("signed"), sig(i)) == (i == 0) },
		ops:     cVerifyOps.Value,
	}
}

// TestMemoPoolContract runs the four guarantees the callers rely on over
// both pools: a waiter on a warmed entry gets the worker's result without
// computing again, Close completes queued jobs, a full queue falls back to
// inline computation, and pruning never evicts an entry in flight.
func TestMemoPoolContract(t *testing.T) {
	t.Run("sign", func(t *testing.T) {
		testMemoPoolContract(t, func(w int) poolUnderTest[signArgs, signResult] { return signPoolUnderTest(t, w) })
	})
	t.Run("verify", func(t *testing.T) {
		testMemoPoolContract(t, func(w int) poolUnderTest[verifyArgs, bool] { return verifyPoolUnderTest(t, w) })
	})
}

func testMemoPoolContract[A, R any](t *testing.T, newPool func(workers int) poolUnderTest[A, R]) {
	t.Run("waiter gets the worker's result", func(t *testing.T) {
		p := newPool(1)
		defer p.memo.Close()
		before := p.ops()
		p.warm(0)
		p.warm(0) // coalesced
		if !p.correct(0) {
			t.Error("wrong result for a warmed request")
		}
		if ops := p.ops() - before; ops != 1 {
			t.Errorf("%d RSA operations for one warmed request, want 1", ops)
		}
		if hits, misses := p.memo.Stats(); hits != 2 || misses != 1 {
			t.Errorf("hits=%d misses=%d, want 2 and 1", hits, misses)
		}
	})

	t.Run("Close completes queued jobs", func(t *testing.T) {
		p := newPool(1)
		const n = 8
		for i := 0; i < n; i++ {
			p.warm(i)
		}
		p.memo.Close()
		for i := 0; i < n; i++ {
			if !p.correct(i) { // would hang on an entry Close abandoned
				t.Errorf("request %d: wrong result after Close", i)
			}
		}
		if hits, misses := p.memo.Stats(); hits != n || misses != n {
			t.Errorf("hits=%d misses=%d, want %d and %d", hits, misses, n, n)
		}
		p.warm(n) // dropped: no worker is left to complete it
		if !p.correct(n) {
			t.Error("wrong result for a request warmed after Close")
		}
	})

	t.Run("full queue falls back to inline", func(t *testing.T) {
		p := newPool(1)
		defer p.memo.Close()
		// The one worker blocks inside its first job, so the queue fills.
		gate := make(chan struct{})
		release := sync.OnceFunc(func() { close(gate) })
		defer release()
		compute := p.memo.compute
		p.memo.compute = func(a A) R { <-gate; return compute(a) }
		overflow := -1
		for i := 0; i <= cap(p.memo.jobs)+1 && overflow < 0; i++ {
			_, before := p.memo.Stats()
			p.warm(i)
			if _, after := p.memo.Stats(); after == before {
				overflow = i // neither queued nor counted
			}
		}
		if overflow < cap(p.memo.jobs) {
			t.Fatalf("first dropped warm-up was request %d, want one past the queue's %d slots", overflow, cap(p.memo.jobs))
		}
		p.memo.mu.Lock()
		cached := len(p.memo.cache)
		p.memo.mu.Unlock()
		if cached != overflow {
			t.Errorf("%d entries cached, want %d: the dropped warm-up must not publish an entry", cached, overflow)
		}
		release()
		if !p.correct(overflow) {
			t.Error("wrong inline result")
		}
		if _, misses := p.memo.Stats(); misses != int64(overflow)+1 {
			t.Errorf("misses=%d after the inline request, want %d", misses, overflow+1)
		}
	})

	t.Run("pruning keeps entries in flight", func(t *testing.T) {
		p := newPool(2)
		defer p.memo.Close()
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
