package seccrypto

import "crypto/rsa"

// SignPool parallelizes RSA signature generation with a memoizing cache,
// the outbound mirror of VerifyPool. Footnote 2 observes that signing
// dominates per-transaction time under RSA and that smaller batches
// amortize it worse; the node runtime's outbound pipeline warms the pool
// with each batch digest as it is enqueued, so by the time the sender
// stage needs the signature it is usually already computed — and identical
// (key, data) pairs, which re-derivations and fan-out to multiple peers
// produce constantly, are never signed twice.
//
// PKCS#1 v1.5 signing is deterministic, so memoization is semantically
// invisible: the pool computes exactly RSASign.
type SignPool struct {
	*memoPool[signArgs, signResult]
}

type signArgs struct {
	priv *rsa.PrivateKey
	data []byte
}

type signResult struct {
	sig []byte
	err error
}

// NewSignPool starts workers goroutines (GOMAXPROCS if workers <= 0).
func NewSignPool(workers int) *SignPool {
	return &SignPool{newMemoPool(workers, func(a signArgs) (r signResult) {
		r.sig, r.err = RSASign(a.priv, a.data)
		return r
	}, cSignHits, cSignMisses)}
}

// Warm schedules an asynchronous signature over data if it is not already
// cached or in flight. It never blocks: when the worker queue is full the
// pair is simply left for Sign to compute inline.
func (p *SignPool) Warm(priv *rsa.PrivateKey, privDER, data []byte) {
	if priv != nil {
		p.warm(cacheKey(privDER, data), signArgs{priv, data})
	}
}

// Sign returns RSASign(priv, data), waiting for an in-flight warm-up when
// one exists, computing inline (and caching) otherwise.
func (p *SignPool) Sign(priv *rsa.PrivateKey, privDER, data []byte) ([]byte, error) {
	r := p.get(cacheKey(privDER, data), signArgs{priv, data})
	return r.sig, r.err
}
