package generics_test

import (
	"strings"
	"testing"

	"secureblox/internal/apps"
	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/dist"
	"secureblox/internal/generics"
)

// shippedPolicies is every BloxGenerics source the repository compiles: each
// scheme's sources and speaks-for policy, the delegation and authorization
// policies, the anonymity policy and the export declaration.
func shippedPolicies() []string {
	seen := map[string]bool{}
	var out []string
	add := func(src string) {
		if !seen[src] {
			seen[src] = true
			out = append(out, src)
		}
	}
	for _, auth := range []core.AuthScheme{core.AuthNone, core.AuthHMAC, core.AuthRSA} {
		for _, batch := range []bool{false, true} {
			for _, enc := range []bool{false, true} {
				for _, authz := range []bool{false, true} {
					for _, del := range []core.Delegation{core.DelegateAll, core.DelegateTrustworthy, core.DelegatePerPred, core.DelegateNone} {
						p := core.PolicyConfig{Auth: auth, BatchSign: batch, Encrypt: enc, Authorization: authz, Delegation: del}
						for _, src := range append(p.Sources(), p.SpeaksFor()) {
							add(src)
						}
					}
				}
			}
		}
	}
	for _, src := range []string{apps.AnonPolicy, dist.ExportDecl} {
		add(src)
	}
	return out
}

// FuzzParsePolicy: ParsePolicy never panics, whatever the text — in
// particular not on a shipped policy cut short or with its quotes and braces
// out of balance — and the concrete code of a source it accepts goes through
// the DatalogLB parser without panicking either.
func FuzzParsePolicy(f *testing.F) {
	for _, src := range shippedPolicies() {
		f.Add(src)
		for _, cut := range []int{len(src) / 4, len(src) / 2, 3 * len(src) / 4, len(src) - 1} {
			f.Add(src[:cut])
		}
		f.Add(strings.Replace(src, "}", "", 1))
		f.Add(strings.Replace(src, "`", "", 1))
		f.Add(src + "`{")
		f.Add(strings.Replace(src, "<--", "<- -", 1))
	}
	f.Fuzz(func(t *testing.T, src string) {
		ps, err := generics.ParsePolicy(src)
		if err != nil {
			return
		}
		_, _ = datalog.Parse(ps.Passthrough)
	})
}
