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
	p := NewVerifyPool(4)
	defer p.Close()

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

func TestVerifyPoolWarmThenVerifyConcurrent(t *testing.T) {
	priv, err := GenerateRSAKey(NewDeterministicRand(2))
	if err != nil {
		t.Fatal(err)
	}
	pub := &priv.PublicKey
	der := MarshalPublicKey(pub)
	p := NewVerifyPool(4)
	defer p.Close()

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
	// Warm everything (twice — duplicates must be coalesced), then verify
	// from many goroutines, mimicking the inbound path.
	for _, it := range items {
		p.Warm(pub, der, it.data, it.sig)
		p.Warm(pub, der, it.data, it.sig)
	}
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for _, it := range items {
		wg.Add(1)
		go func(it item) {
			defer wg.Done()
			if got := p.Verify(pub, der, it.data, it.sig); got != it.valid {
				errs <- fmt.Sprintf("%q: verify=%v want %v", it.data, got, it.valid)
			}
		}(it)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestVerifyPoolPruneEvictsOnlyCompletedEntries(t *testing.T) {
	priv, err := GenerateRSAKey(NewDeterministicRand(4))
	if err != nil {
		t.Fatal(err)
	}
	pub := &priv.PublicKey
	der := MarshalPublicKey(pub)
	p := NewVerifyPool(2)
	defer p.Close()
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

func TestVerifyPoolCloseCompletesQueuedWork(t *testing.T) {
	priv, err := GenerateRSAKey(NewDeterministicRand(3))
	if err != nil {
		t.Fatal(err)
	}
	pub := &priv.PublicKey
	der := MarshalPublicKey(pub)
	p := NewVerifyPool(1)
	data := []byte("late")
	sig, _ := RSASign(priv, data)
	p.Warm(pub, der, data, sig)
	p.Close()
	// After Close the cached entry must still resolve — and fresh calls
	// compute inline rather than hanging on dead workers.
	if !p.Verify(pub, der, data, sig) {
		t.Error("queued verification lost on Close")
	}
	if p.Verify(pub, der, []byte("new"), sig) {
		t.Error("inline post-Close verification returned wrong result")
	}
}
