package core

import (
	"fmt"
	"strings"
	"testing"

	"secureblox/internal/cluster"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/generics"
	"secureblox/internal/seccrypto"
	"secureblox/internal/udf"
	"secureblox/internal/wire"
)

const tinyQuery = `
	item(X, Y) -> int(X), int(Y).
	exportable('item).
`

// TestAllPolicyConfigurationsCompile sweeps the full configuration matrix
// through the BloxGenerics compiler: every combination must produce a
// program that parses, compiles, and installs.
func TestAllPolicyConfigurationsCompile(t *testing.T) {
	for _, auth := range []AuthScheme{AuthNone, AuthHMAC, AuthRSA} {
		for _, enc := range []bool{false, true} {
			for _, authz := range []bool{false, true} {
				for _, del := range []Delegation{DelegateAll, DelegateTrustworthy, DelegatePerPred, DelegateNone} {
					cfg := PolicyConfig{Auth: auth, Encrypt: enc, Authorization: authz, Delegation: del}
					gc := generics.NewCompiler()
					for _, src := range cfg.Sources() {
						if err := gc.AddPolicy(src); err != nil {
							t.Fatalf("%s del=%d authz=%v: AddPolicy: %v", cfg.Name(), del, authz, err)
						}
					}
					res, err := gc.Compile(tinyQuery)
					if err != nil {
						t.Fatalf("%s del=%d authz=%v: %v", cfg.Name(), del, authz, err)
					}
					ws := engine.NewWorkspace(nil)
					if err := ws.Install(res.Program); err != nil {
						t.Fatalf("%s del=%d authz=%v: install: %v\n%s",
							cfg.Name(), del, authz, err, res.GeneratedSrc)
					}
				}
			}
		}
	}
}

// TestPolicySourcesAreScheme verifies the scheme-specific operators land in
// the generated code.
func TestPolicySourcesAreScheme(t *testing.T) {
	compile := func(cfg PolicyConfig) string {
		gc := generics.NewCompiler()
		for _, src := range cfg.Sources() {
			if err := gc.AddPolicy(src); err != nil {
				t.Fatal(err)
			}
		}
		res, err := gc.Compile(tinyQuery)
		if err != nil {
			t.Fatal(err)
		}
		return res.GeneratedSrc
	}
	if src := compile(PolicyConfig{Auth: AuthRSA}); !strings.Contains(src, "rsa_sign") || !strings.Contains(src, "rsa_verify") {
		t.Errorf("RSA policy missing operators:\n%s", src)
	}
	if src := compile(PolicyConfig{Auth: AuthHMAC}); !strings.Contains(src, "hmac_sign") {
		t.Errorf("HMAC policy missing operators:\n%s", src)
	}
	if src := compile(PolicyConfig{Encrypt: true}); !strings.Contains(src, "aesencrypt") || !strings.Contains(src, "aesdecrypt") {
		t.Errorf("AES policy missing operators:\n%s", src)
	}
	if src := compile(PolicyConfig{Authorization: true}); !strings.Contains(src, "writeAccess") {
		t.Errorf("authorization policy missing writeAccess:\n%s", src)
	}
	if src := compile(PolicyConfig{Delegation: DelegatePerPred}); !strings.Contains(src, "trustworthyPerPred['item]") {
		t.Errorf("per-predicate delegation missing:\n%s", src)
	}
}

// TestSpeaksFor exercises the restricted-delegation construct: a fact said
// by a deputy principal is attributed to the principal it speaks for. Under
// NoAuth no sig fact exists, and the attribution reads says alone; under HMAC
// the attributed fact carries the deputy's sig fact, and must verify for the
// principal it is attributed to (here the two share the node's secret).
func TestSpeaksFor(t *testing.T) {
	install := func(t *testing.T, cfg PolicyConfig) *engine.Workspace {
		t.Helper()
		gc := generics.NewCompiler()
		for _, src := range append(cfg.Sources(), cfg.SpeaksFor()) {
			if err := gc.AddPolicy(src); err != nil {
				t.Fatal(err)
			}
		}
		res, err := gc.Compile(tinyQuery + `
			accepted(X, Y) <- says['item](#boss, self[], X, Y).
		`)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := udf.NewRegistry(seccrypto.NewKeyStore("me"), nil)
		if err != nil {
			t.Fatal(err)
		}
		ws := engine.NewWorkspace(reg)
		if err := ws.Install(res.Program); err != nil {
			t.Fatalf("install: %v\n%s", err, res.GeneratedSrc)
		}
		if _, err := ws.AssertProgramFacts(`
			self[]=#me. principal(#me). principal(#boss). principal(#deputy).
			principal(#stranger). speaksfor(#deputy, #boss).
			secret(#deputy, 0x000102030405060708090a0b0c0d0e0f).
			secret(#boss, 0x000102030405060708090a0b0c0d0e0f).
		`); err != nil {
			t.Fatal(err)
		}
		return ws
	}

	t.Run("NoAuth", func(t *testing.T) {
		ws := install(t, PolicyConfig{Auth: AuthNone, Delegation: DelegateNone})
		if _, err := ws.AssertProgramFacts(`says['item](#deputy, #me, 1, 2).`); err != nil {
			t.Fatal(err)
		}
		if ws.Count("accepted") != 1 {
			t.Errorf("speaks-for attribution failed: says tuples %v", ws.Tuples("says$item"))
		}
		// a principal nobody speaks for is not attributed
		if _, err := ws.AssertProgramFacts(`says['item](#stranger, #me, 3, 4).`); err != nil {
			t.Fatal(err)
		}
		if ws.Count("accepted") != 1 {
			t.Error("non-delegated principal was attributed")
		}
		if ws.Count("sig$item") != 0 {
			t.Errorf("NoAuth stored %d sig rows", ws.Count("sig$item"))
		}
	})

	t.Run("HMAC", func(t *testing.T) {
		ws := install(t, PolicyConfig{Auth: AuthHMAC, Delegation: DelegateNone})
		if _, err := ws.AssertProgramFacts(`says['item](#deputy, #me, 1, 2).`); err == nil {
			t.Fatal("HMAC accepted a said fact without its sig fact")
		}
		key := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
		tag := seccrypto.HMACSign(key, wire.SigData("item", datalog.Tuple{datalog.Int64(1), datalog.Int64(2)}))
		if _, err := ws.AssertProgramFacts(fmt.Sprintf(`
			says['item](#deputy, #me, 1, 2).
			sig['item](#deputy, #me, 1, 2, 0x%x).
		`, tag)); err != nil {
			t.Fatal(err)
		}
		if ws.Count("accepted") != 1 {
			t.Errorf("speaks-for attribution failed: says tuples %v", ws.Tuples("says$item"))
		}
	})
}

// deploymentConfig is a 3-node deployment config carrying the key material
// its policy needs: an inline RSA key per node under the RSA schemes, a
// cluster secret under HMAC and the -AES schemes.
func deploymentConfig(t *testing.T, policy string) *cluster.Config {
	t.Helper()
	p, err := ParsePolicyName(policy)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster.Config{
		Cluster:  "t",
		Policy:   policy,
		Workload: cluster.WorkloadConfig{Name: "pathvector", Seed: 1, Degree: 3},
		Nodes: []cluster.NodeConfig{
			{Principal: "p0", Addr: "127.0.0.1:7101"},
			{Principal: "p1", Addr: "127.0.0.1:7102"},
			{Principal: "p2", Addr: "127.0.0.1:0"},
		},
	}
	if p.Auth == AuthRSA {
		k, err := seccrypto.GenerateRSAKey(seccrypto.NewDeterministicRand(7))
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Nodes {
			c.Nodes[i].KeyPEM = string(seccrypto.EncodePrivateKeyPEM(k))
		}
	}
	if p.usesSecrets() {
		c.ClusterSecret = strings.Repeat("ab", seccrypto.SecretLen)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDeploymentPolicyErrors: a deployment config is refused for a policy
// label no scheme has, and for key material its policy does not match — a
// node without the RSA key its scheme signs with or with a key its scheme
// never reads, a missing or short cluster secret under a scheme that uses
// pairwise secrets, a secret under one that does not. Every one of the eight
// labels passes with its own material.
func TestDeploymentPolicyErrors(t *testing.T) {
	for _, name := range []string{"NoAuth", "NoAuth-AES", "HMAC", "HMAC-AES", "RSA", "RSA-AES", "RSA-batch", "RSA-batch-AES"} {
		if p, err := DeploymentPolicy(deploymentConfig(t, name)); err != nil || p.Name() != name {
			t.Fatalf("%s: DeploymentPolicy = %s, %v", name, p.Name(), err)
		}
	}
	cases := []struct {
		name   string
		policy string
		mutate func(*cluster.Config)
		want   string
	}{
		{"policy typo", "NoAuth", func(c *cluster.Config) { c.Policy = "RSAA" }, `unknown policy "RSAA"`},
		{"policy case typo", "NoAuth", func(c *cluster.Config) { c.Policy = "rsa" }, `unknown policy "rsa"`},
		{"batch without rsa", "NoAuth", func(c *cluster.Config) { c.Policy = "HMAC-batch" }, "-batch requires the RSA scheme"},
		{"missing key", "RSA", func(c *cluster.Config) { c.Nodes[1].KeyPEM = "" }, "needs an RSA key"},
		{"stray key", "NoAuth", func(c *cluster.Config) { c.Nodes[0].KeyFile = "p0.pem" }, "policy NoAuth uses none"},
		{"short secret", "HMAC", func(c *cluster.Config) { c.ClusterSecret = "abcd" }, "at least"},
		{"absent secret", "HMAC", func(c *cluster.Config) { c.ClusterSecret = "" }, "at least"},
		{"stray secret", "NoAuth", func(c *cluster.Config) { c.ClusterSecret = strings.Repeat("ab", 16) }, "uses no shared secrets"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := deploymentConfig(t, tc.policy)
			tc.mutate(c)
			if _, err := DeploymentPolicy(c); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}
