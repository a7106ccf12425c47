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
	p := NewSignPool()

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
	p := NewSignPool()
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

func TestSignPoolPruneBoundsCache(t *testing.T) {
	priv, err := GenerateRSAKey(NewDeterministicRand(15))
	if err != nil {
		t.Fatal(err)
	}
	der := MarshalPrivateKey(priv)
	p := NewSignPool()
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
