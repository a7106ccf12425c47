package engine_test

import (
	"strings"
	"testing"

	"secureblox/internal/apps"
	"secureblox/internal/core"
	"secureblox/internal/engine"
	"secureblox/internal/generics"
	"secureblox/internal/seccrypto"
	"secureblox/internal/udf"
)

// TestShippedPlansGolden: every distinct rule and constraint of the programs
// the shipped workloads compile, printed once in the order the programs first
// hold it, matches testdata/shipped_plans.golden, and every program keeps the
// planner's invariants. The programs are each workload under every
// authentication scheme — plain, with encryption, batch-signed (RSA only),
// and with authorization and delegation to the trustworthy — and what ships:
// each workload under each of the eight schemes, with no import rule.
func TestShippedPlansGolden(t *testing.T) {
	reg, err := udf.NewRegistry(seccrypto.NewKeyStore("plans"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	seen := map[string]bool{}
	add := func(w apps.Workload, pol core.PolicyConfig, res *generics.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s/%s: %v", w.Name, pol.Name(), err)
		}
		p, err := engine.Compile(res.Program, reg)
		if err != nil {
			t.Fatalf("%s/%s: %v", w.Name, pol.Name(), err)
		}
		if err := engine.CheckPlans(p); err != nil {
			t.Errorf("%s/%s: %v", w.Name, pol.Name(), err)
		}
		for _, block := range engine.PlanBlocks(p) {
			if !seen[block] {
				seen[block] = true
				b.WriteString(block)
			}
		}
	}
	auths := []core.AuthScheme{core.AuthNone, core.AuthHMAC, core.AuthRSA}
	for _, w := range apps.Workloads {
		for _, auth := range auths {
			for _, pol := range []core.PolicyConfig{{}, {Encrypt: true}, {BatchSign: true}, {Authorization: true, Delegation: core.DelegateTrustworthy}} {
				if pol.Auth = auth; pol.BatchSign && auth != core.AuthRSA {
					continue
				}
				res, err := core.CompileProgram(pol, w.Query, w.ExtraPolicies)
				add(w, pol, res, err)
			}
		}
	}
	for _, w := range apps.Workloads {
		for _, auth := range auths {
			for _, pol := range []core.PolicyConfig{{}, {Encrypt: true}, {BatchSign: true}, {BatchSign: true, Encrypt: true}} {
				if pol.Auth = auth; pol.BatchSign && auth != core.AuthRSA {
					continue
				}
				res, err := w.Compile(pol)
				add(w, pol, res, err)
			}
		}
	}
	engine.CheckGolden(t, "shipped_plans.golden", b.String())
}
