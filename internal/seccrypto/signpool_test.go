package seccrypto

import (
	"bytes"
	"fmt"
	"testing"
)

func TestSignPoolMatchesDirectSigning(t *testing.T) {
	priv, err := GenerateRSAKey(NewDeterministicRand(10))
	if err != nil {
		t.Fatal(err)
	}
	der := MarshalPrivateKey(priv)
	p := NewSignPool(4)
	defer p.Close()

	data := []byte("the bytes to sign")
	want, err := RSASign(priv, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Sign(priv, der, data)
	if err != nil {
		t.Fatal(err)
	}
	// PKCS#1 v1.5 signing is deterministic, so pooled and direct
	// signatures must be byte-identical.
	if !bytes.Equal(got, want) {
		t.Error("pooled signature differs from direct RSASign")
	}
	if !RSAVerify(&priv.PublicKey, data, got) {
		t.Error("pooled signature does not verify")
	}
}

func TestSignPoolCacheHitsAndMisses(t *testing.T) {
	priv, err := GenerateRSAKey(NewDeterministicRand(11))
	if err != nil {
		t.Fatal(err)
	}
	der := MarshalPrivateKey(priv)
	p := NewSignPool(2)
	defer p.Close()
	counts := p.since()

	a, b := []byte("batch digest A"), []byte("batch digest B")
	sigA1, err := p.Sign(priv, der, a)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := counts(); h != 0 || m != 1 {
		t.Errorf("after first sign: hits=%d misses=%d, want 0/1", h, m)
	}
	// The same (key, data) pair must be served from cache: one more hit,
	// no new miss, identical bytes.
	sigA2, err := p.Sign(priv, der, a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sigA1, sigA2) {
		t.Error("cached signature differs from first computation")
	}
	if h, m := counts(); h != 1 || m != 1 {
		t.Errorf("after cached sign: hits=%d misses=%d, want 1/1", h, m)
	}
	// Distinct data is a miss.
	if _, err := p.Sign(priv, der, b); err != nil {
		t.Fatal(err)
	}
	if h, m := counts(); h != 1 || m != 2 {
		t.Errorf("after distinct sign: hits=%d misses=%d, want 1/2", h, m)
	}
	// A different key over already-signed data must not collide.
	priv2, err := GenerateRSAKey(NewDeterministicRand(12))
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := p.Sign(priv2, MarshalPrivateKey(priv2), a)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sig2, sigA1) {
		t.Error("cache collided across distinct private keys")
	}
}

func TestSignPoolWarmThenSign(t *testing.T) {
	priv, err := GenerateRSAKey(NewDeterministicRand(13))
	if err != nil {
		t.Fatal(err)
	}
	der := MarshalPrivateKey(priv)
	p := NewSignPool(2)
	defer p.Close()
	counts := p.since()

	const n = 16
	for i := 0; i < n; i++ {
		data := []byte(fmt.Sprintf("digest-%d", i))
		p.Warm(priv, der, data)
		p.Warm(priv, der, data) // duplicate warms coalesce
	}
	if h, m := counts(); m != n || h != n {
		t.Errorf("after double warm: hits=%d misses=%d, want %d/%d", h, m, n, n)
	}
	for i := 0; i < n; i++ {
		data := []byte(fmt.Sprintf("digest-%d", i))
		sig, err := p.Sign(priv, der, data)
		if err != nil {
			t.Fatal(err)
		}
		if !RSAVerify(&priv.PublicKey, data, sig) {
			t.Errorf("warmed signature %d does not verify", i)
		}
	}
	// Every Sign found its warmed entry: no new misses.
	if _, m := counts(); m != n {
		t.Errorf("signs after warm recomputed: misses=%d, want %d", m, n)
	}
}

func TestSignPoolCloseCompletesQueuedWork(t *testing.T) {
	priv, err := GenerateRSAKey(NewDeterministicRand(14))
	if err != nil {
		t.Fatal(err)
	}
	der := MarshalPrivateKey(priv)
	p := NewSignPool(1)
	data := []byte("late digest")
	p.Warm(priv, der, data)
	p.Close()
	// After Close the cached entry must still resolve — and fresh calls
	// compute inline rather than hanging on dead workers.
	sig, err := p.Sign(priv, der, data)
	if err != nil {
		t.Fatal(err)
	}
	if !RSAVerify(&priv.PublicKey, data, sig) {
		t.Error("queued signature lost on Close")
	}
	if _, err := p.Sign(priv, der, []byte("post-close")); err != nil {
		t.Errorf("inline post-Close signing failed: %v", err)
	}
}

func TestSignPoolPruneBoundsCache(t *testing.T) {
	priv, err := GenerateRSAKey(NewDeterministicRand(15))
	if err != nil {
		t.Fatal(err)
	}
	der := MarshalPrivateKey(priv)
	p := NewSignPool(2)
	defer p.Close()
	p.mu.Lock()
	p.maxSize = 8
	p.mu.Unlock()

	for i := 0; i < 40; i++ {
		if _, err := p.Sign(priv, der, []byte(fmt.Sprintf("d-%d", i))); err != nil {
			t.Fatal(err)
		}
		p.mu.Lock()
		if n := len(p.cache); n > 8+1 {
			p.mu.Unlock()
			t.Fatalf("sign cache grew to %d entries, want <= maxSize+1", n)
		}
		p.mu.Unlock()
	}
}
