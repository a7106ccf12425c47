package seccrypto

import (
	"fmt"
	"sync"
	"testing"
)

func TestVerifyPoolMatchesDirectVerification(t *testing.T) {
	priv, err := GenerateRSAKey(NewDeterministicRand(1))
	if err != nil {
		t.Fatal(err)
	}
	pub := &priv.PublicKey
	der := MarshalPublicKey(pub)
	p := NewVerifyPool()

	data := []byte("the signed bytes")
	sig, err := RSASign(priv, data)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Verify(pub, der, data, sig) {
		t.Error("valid signature rejected")
	}
	if p.Verify(pub, der, data, []byte("bogus")) {
		t.Error("bogus signature accepted")
	}
	if p.Verify(pub, der, []byte("other data"), sig) {
		t.Error("signature over different data accepted")
	}
}

// TestVerifyPoolConcurrentVerifyComputesOnce: concurrent Verify calls of one
// triple compute it once and all get the answer RSAVerify gives.
func TestVerifyPoolConcurrentVerifyComputesOnce(t *testing.T) {
	priv, err := GenerateRSAKey(NewDeterministicRand(2))
	if err != nil {
		t.Fatal(err)
	}
	pub := &priv.PublicKey
	der := MarshalPublicKey(pub)
	p := NewVerifyPool()

	const n = 64
	type item struct {
		data, sig []byte
		valid     bool
	}
	items := make([]item, n)
	for i := range items {
		data := []byte(fmt.Sprintf("payload-%d", i))
		sig, err := RSASign(priv, data)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 { // every third signature is corrupted
			sig[0] ^= 0xFF
		}
		items[i] = item{data: data, sig: sig, valid: i%3 != 0}
	}
	// Every triple is verified from four goroutines at once, as nodes sharing
	// the pool do: each gets the right answer, and each triple costs one RSA
	// verification.
	counts, before := p.since(), cVerifyOps.Value()
	var wg sync.WaitGroup
	errs := make(chan string, 4*n)
	for range 4 {
		for _, it := range items {
			wg.Add(1)
			go func(it item) {
				defer wg.Done()
				if got := p.Verify(pub, der, it.data, it.sig); got != it.valid {
					errs <- fmt.Sprintf("%q: verify=%v want %v", it.data, got, it.valid)
				}
			}(it)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if ops := cVerifyOps.Value() - before; ops != n {
		t.Errorf("%d RSA verifications for %d distinct triples, want %d", ops, n, n)
	}
	if hits, misses := counts(); hits != 3*n || misses != n {
		t.Errorf("hits=%d misses=%d, want %d and %d", hits, misses, 3*n, n)
	}
}

func TestVerifyPoolPruneEvictsOnlyCompletedEntries(t *testing.T) {
	priv, err := GenerateRSAKey(NewDeterministicRand(4))
	if err != nil {
		t.Fatal(err)
	}
	pub := &priv.PublicKey
	der := MarshalPublicKey(pub)
	p := NewVerifyPool()
	p.mu.Lock()
	p.maxSize = 8
	// Plant an in-flight entry by hand: its done channel never closes, so
	// eviction must skip it no matter how much churn follows (a waiter may
	// hold a reference and would otherwise hang on a re-inserted twin).
	inflight := &memoEntry[bool]{done: make(chan struct{})}
	var inflightKey [32]byte
	inflightKey[0] = 0xAB
	p.cache[inflightKey] = inflight
	p.mu.Unlock()

	data := []byte("churn")
	sig, err := RSASign(priv, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		// Distinct sig bytes give distinct cache keys; each Verify inserts
		// a completed entry and triggers pruning past maxSize.
		s := append([]byte(nil), sig...)
		s[0], s[1] = byte(i), byte(i>>8)
		p.Verify(pub, der, data, s)
		p.mu.Lock()
		n := len(p.cache)
		_, kept := p.cache[inflightKey]
		p.mu.Unlock()
		// The entry being inserted is itself in flight while pruning runs,
		// so the bound is maxSize plus the current insertion.
		if n > 8+1 {
			t.Fatalf("verify cache grew to %d entries, want <= maxSize+1", n)
		}
		if !kept {
			t.Fatal("in-flight entry was evicted")
		}
	}
	close(inflight.done)
}
