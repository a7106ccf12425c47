package seccrypto

import "crypto/rsa"

// VerifyPool parallelizes RSA signature verification with a memoizing
// cache. The paper's footnote 2 observes that signature costs dominate
// per-transaction time under RSA; on the inbound path one slow verify would
// otherwise serialize the whole transaction loop. The runtime warms the
// pool as datagrams arrive (see dist.Node.PreVerify), so by the time the
// policy's rsa_verify constraint runs inside the transaction, the result is
// usually already computed — and identical (key, data, sig) triples, which
// re-derivations produce constantly, are never verified twice.
//
// The pool is purely an accelerator: it computes exactly RSAVerify, and
// the policy constraints still make every accept/reject decision.
type VerifyPool struct {
	*memoPool[verifyArgs, bool]
}

type verifyArgs struct {
	pub       *rsa.PublicKey
	data, sig []byte
}

// NewVerifyPool starts workers goroutines (GOMAXPROCS if workers <= 0).
func NewVerifyPool(workers int) *VerifyPool {
	return &VerifyPool{newMemoPool(workers, func(a verifyArgs) bool {
		return RSAVerify(a.pub, a.data, a.sig)
	}, cVerifyHits, cVerifyMisses)}
}

// Warm schedules an asynchronous verification of the triple if it is not
// already cached or in flight. It never blocks: when the worker queue is
// full the triple is simply left for Verify to compute inline.
func (p *VerifyPool) Warm(pub *rsa.PublicKey, pubDER, data, sig []byte) {
	if pub != nil {
		p.warm(cacheKey(pubDER, data, sig), verifyArgs{pub, data, sig})
	}
}

// Verify returns RSAVerify(pub, data, sig), waiting for an in-flight
// warm-up when one exists, computing inline (and caching) otherwise.
func (p *VerifyPool) Verify(pub *rsa.PublicKey, pubDER, data, sig []byte) bool {
	return p.get(cacheKey(pubDER, data, sig), verifyArgs{pub, data, sig})
}
