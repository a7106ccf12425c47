package seccrypto

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingReader counts what is read from an inner reader and fails once
// limit bytes have been handed out (limit < 0: never). The inner reader is
// deliberately not safe for concurrent use, as a seeded math/rand is not:
// under -race an unserialised Read is a report.
type countingReader struct {
	r     io.Reader
	limit int64
	n     int64
	in    atomic.Int32
	t     *testing.T
}

var errDry = errors.New("entropy source ran dry")

func (c *countingReader) Read(p []byte) (int, error) {
	if c.in.Add(1) != 1 {
		c.t.Error("concurrent Read on the caller's reader")
	}
	defer c.in.Add(-1)
	if c.limit >= 0 && c.n+int64(len(p)) > c.limit {
		return 0, errDry
	}
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func principalNames(n int) []string {
	ps := make([]string, n)
	for i := range ps {
		ps[i] = fmt.Sprintf("p%d", i)
	}
	return ps
}

// The fan-out writes keys by index: eight principals get eight distinct
// keypairs, each store holds its own, and every directory agrees on whose
// public key is whose. The secrets, drawn before the fan-out, are the bytes
// the serial setup drew for this seed (digest taken at commit 5cfcfdd).
func TestConcurrentTrustSetupKeysAreDistinctAndOwned(t *testing.T) {
	ps := principalNames(8)
	ts, err := NewTrustSetup(ps, NewDeterministicRand(5))
	if err != nil {
		t.Fatal(err)
	}
	h := sha1.New()
	for i, p := range ps {
		for _, q := range ps[i+1:] {
			h.Write(ts.Stores[p].Secret(q))
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != "bdc1415be78cee9ee7325e01b2d3bf5dbd251be1" {
		t.Errorf("seed 5's pairwise secrets changed: digest %s", got)
	}
	seen := map[string]string{}
	for _, p := range ps {
		priv := ts.Stores[p].PrivateKey()
		if priv == nil {
			t.Fatalf("%s has no private key", p)
		}
		if err := priv.Validate(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
		own := MarshalPublicKey(&priv.PublicKey)
		if q, dup := seen[string(own)]; dup {
			t.Errorf("%s and %s hold the same keypair", p, q)
		}
		seen[string(own)] = p
		for _, q := range ps {
			if !bytes.Equal(ts.Stores[q].PublicKeyDER(p), own) {
				t.Errorf("%s's directory entry for %s is not %s's own public key", q, p, p)
			}
		}
	}
}

// Key material comes from the caller's reader: every prime candidate of
// every key is read from it (two 512-bit primes per key at the least), one
// Read at a time, and a reader that cannot deliver fails the call — there is
// no other source to fall back on.
func TestGenerateRSAKeysReadsTheCallersReader(t *testing.T) {
	const n = 6
	cr := &countingReader{r: NewDeterministicRand(42), limit: -1, t: t}
	keys, err := GenerateRSAKeys(n, cr)
	if err != nil {
		t.Fatal(err)
	}
	if min := int64(n * RSABits / 8); cr.n < min {
		t.Errorf("read %d bytes from the caller's reader for %d keys, want at least %d", cr.n, n, min)
	}
	msg := []byte("signed with a concurrently generated key")
	for i, k := range keys {
		sig, err := RSASign(k, msg)
		if err != nil || !RSAVerify(&k.PublicKey, msg, sig) {
			t.Errorf("key %d does not sign and verify: %v", i, err)
		}
		for j := range keys[:i] {
			if keys[j].N.Cmp(k.N) == 0 {
				t.Errorf("keys %d and %d are equal", j, i)
			}
		}
	}
	if _, err := GenerateRSAKeys(n, &countingReader{r: NewDeterministicRand(42), limit: 0, t: t}); !errors.Is(err, errDry) {
		t.Errorf("an empty reader must fail key generation, got %v", err)
	}
	if keys, err := GenerateRSAKeys(0, cr); err != nil || len(keys) != 0 {
		t.Errorf("n=0: %v, %d keys", err, len(keys))
	}
}

// A reader that fails part-way through the keys fails the setup with an
// error that names a principal and wraps the reader's own, and only after
// every generator has exited. Secrets for 8 principals take 28*16 bytes and
// eight keys some 180 KB of prime candidates, so each limit lands inside key
// generation: before the first key, and with some keys already done.
func TestTrustSetupReaderFailureNamesPrincipalAndLeaksNothing(t *testing.T) {
	ps := principalNames(8)
	before := runtime.NumGoroutine()
	for _, limit := range []int64{28 * SecretLen, 28*SecretLen + 200, 28*SecretLen + 20000} {
		ts, err := NewTrustSetup(ps, &countingReader{r: NewDeterministicRand(43), limit: limit, t: t})
		if ts != nil || !errors.Is(err, errDry) {
			t.Fatalf("limit %d: want the reader's error and no setup, got %v", limit, err)
		}
		named := false
		for _, p := range ps {
			named = named || strings.Contains(err.Error(), "keygen for "+p+":")
		}
		if !named {
			t.Errorf("limit %d: error names no principal: %v", limit, err)
		}
	}
	if _, err := NewTrustSetup(ps, &countingReader{r: NewDeterministicRand(43), limit: 5 * SecretLen, t: t}); !errors.Is(err, errDry) {
		t.Errorf("a reader failing inside the secrets must fail the setup, got %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("key generators outlive a failed setup: %d goroutines before, %d after", before, now)
	}
}
