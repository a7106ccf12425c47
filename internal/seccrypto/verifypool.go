package seccrypto

import "crypto/rsa"

// VerifyPool is a memoizing cache of RSA signature verifications. The paper's
// footnote 2 observes that signature costs dominate per-transaction time
// under RSA; identical (key, data, sig) triples, which re-derivations produce
// constantly and which RSA-batch's rsa_verify_batch checks once per payload
// row of an envelope, are verified once. It starts no goroutines: a miss
// verifies on the caller's goroutine, inside the transaction whose policy
// constraint asked.
//
// The pool only remembers: it computes exactly RSAVerify, and the policy
// constraints still make every accept/reject decision.
type VerifyPool struct {
	*memo[verifyArgs, bool]
}

type verifyArgs struct {
	pub       *rsa.PublicKey
	data, sig []byte
}

// NewVerifyPool builds an empty verification memo.
func NewVerifyPool() *VerifyPool {
	return &VerifyPool{newMemo(func(a verifyArgs) bool {
		return RSAVerify(a.pub, a.data, a.sig)
	}, cVerifyHits, cVerifyMisses)}
}

// Verify returns RSAVerify(pub, data, sig), from the cache when the triple
// was verified before.
func (p *VerifyPool) Verify(pub *rsa.PublicKey, pubDER, data, sig []byte) bool {
	return p.get(cacheKey(pubDER, data, sig), verifyArgs{pub, data, sig})
}
