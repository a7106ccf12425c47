package seccrypto

import "secureblox/internal/obs"

// The package's counters live in the obs registry, registered at init so the
// crypto families render (at zero) on /metrics before the first operation.
// cSignOps counts every RSASign invocation process-wide: the paper's
// footnote 2 identifies signature generation as the dominant cost of RSA
// runs, so benchmarks report its delta per fixpoint to show how memoization
// and batch signing cut the number of private-key operations. cVerifyOps is
// its inbound counterpart. The hit/miss families are the sums over every
// pool; each pool counts into its own children of them.
var (
	cSignOps      *obs.Counter
	cVerifyOps    *obs.Counter
	cSignHits     *obs.Counter
	cSignMisses   *obs.Counter
	cVerifyHits   *obs.Counter
	cVerifyMisses *obs.Counter
)

// SignOps returns the cumulative count of RSA signature computations
// performed by this process.
func SignOps() int64 { return cSignOps.Value() }

func init() {
	r := obs.Default()
	r.Help("sbx_rsa_sign_ops_total", "RSA private-key signature computations (paper footnote 2's dominant cost).")
	r.Help("sbx_rsa_verify_ops_total", "RSA public-key signature verifications.")
	r.Help("sbx_signpool_hits_total", "Sign requests served from the memoizing sign pool cache.")
	r.Help("sbx_signpool_misses_total", "Sign requests that required an RSA computation.")
	r.Help("sbx_verifypool_hits_total", "Verify requests served from the memoizing verify pool cache.")
	r.Help("sbx_verifypool_misses_total", "Verify requests that required an RSA computation.")
	cSignOps = r.Counter("sbx_rsa_sign_ops_total", nil)
	cVerifyOps = r.Counter("sbx_rsa_verify_ops_total", nil)
	cSignHits = r.Counter("sbx_signpool_hits_total", nil)
	cSignMisses = r.Counter("sbx_signpool_misses_total", nil)
	cVerifyHits = r.Counter("sbx_verifypool_hits_total", nil)
	cVerifyMisses = r.Counter("sbx_verifypool_misses_total", nil)
}
