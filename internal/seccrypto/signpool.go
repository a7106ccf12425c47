package seccrypto

import "crypto/rsa"

// SignPool is a memoizing cache of RSA signatures, the outbound mirror of
// VerifyPool. Footnote 2 observes that signing dominates per-transaction time
// under RSA; identical (key, data) pairs, which re-derivations and fan-out to
// several peers produce constantly, are signed once. It starts no goroutines:
// a miss signs on the caller's goroutine, and a concurrent request for the
// same pair waits for that one signature.
//
// PKCS#1 v1.5 signing is deterministic, so memoization is semantically
// invisible: the pool computes exactly RSASign.
type SignPool struct {
	*memo[signArgs, signResult]
}

type signArgs struct {
	priv *rsa.PrivateKey
	data []byte
}

type signResult struct {
	sig []byte
	err error
}

// NewSignPool builds an empty signature memo.
func NewSignPool() *SignPool {
	return &SignPool{newMemo(func(a signArgs) (r signResult) {
		r.sig, r.err = RSASign(a.priv, a.data)
		return r
	}, cSignHits, cSignMisses)}
}

// Sign returns RSASign(priv, data), from the cache when the pair was signed
// before.
func (p *SignPool) Sign(priv *rsa.PrivateKey, privDER, data []byte) ([]byte, error) {
	r := p.get(cacheKey(privDER, data), signArgs{priv, data})
	return r.sig, r.err
}
