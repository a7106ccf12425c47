package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"secureblox/internal/apps"
	"secureblox/internal/cluster"
	"secureblox/internal/core"
	"secureblox/internal/graph"
	"secureblox/internal/seccrypto"
)

// TestNewClusterFromConfig: a deployment config is a second source of node
// identities for the one cluster constructor. Under each kind of key
// material a config can carry — inline RSA keys, pair secrets derived from
// the cluster secret, none — three nodes run path-vector to the fixpoint
// with no violation and shortest paths everywhere.
func TestNewClusterFromConfig(t *testing.T) {
	for _, policy := range []string{"RSA", "HMAC-AES", "NoAuth"} {
		t.Run(policy, func(t *testing.T) {
			dc := &cluster.Config{
				Cluster:  "fromconfig",
				Policy:   policy,
				Workload: cluster.WorkloadConfig{Name: "pathvector", Seed: 5},
			}
			spec := dc.Spec()
			if spec.UsesSharedSecrets() {
				dc.ClusterSecret = "000102030405060708090a0b0c0d0e0f"
			}
			for i, name := range []string{"alice", "bob", "carol"} {
				nc := cluster.NodeConfig{Principal: name, Addr: fmt.Sprintf("127.0.0.1:%d", 7100+i)}
				if spec.UsesRSA() {
					k, err := seccrypto.GenerateRSAKey(seccrypto.NewDeterministicRand(int64(30 + i)))
					if err != nil {
						t.Fatal(err)
					}
					nc.KeyPEM = string(seccrypto.EncodePrivateKeyPEM(k))
				}
				dc.Nodes = append(dc.Nodes, nc)
			}
			if err := dc.Validate(); err != nil {
				t.Fatal(err)
			}
			pol, err := core.PolicyFromSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			pol.Delegation = core.DelegateNone // the query imports itself

			c, err := core.NewClusterFromConfig(dc, core.ClusterConfig{Policy: pol, Query: apps.PathVectorQuery, Seed: dc.Workload.Seed})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			if got := fmt.Sprint(c.Principals); got != "[alice bob carol]" {
				t.Errorf("principals %s, want the config's in config order", got)
			}
			for i, ks := range c.KeyStores {
				for j, peer := range c.Principals {
					if i == j {
						continue
					}
					secret := ks.Secret(peer)
					if (secret != nil) != spec.UsesSharedSecrets() {
						t.Errorf("%s holds a secret for %s: %v, policy wants %v", c.Principals[i], peer, secret != nil, spec.UsesSharedSecrets())
					}
					if !bytes.Equal(secret, c.KeyStores[j].Secret(c.Principals[i])) {
						t.Errorf("%s and %s derived different pair secrets", c.Principals[i], peer)
					}
					if (ks.PublicKeyDER(peer) != nil) != spec.UsesRSA() {
						t.Errorf("%s holds a public key for %s: %v, policy wants %v", c.Principals[i], peer, ks.PublicKeyDER(peer) != nil, spec.UsesRSA())
					}
				}
			}

			g := graph.RandomConnected(len(dc.Nodes), 3, dc.Workload.Seed)
			c.Start()
			for i := range c.Nodes {
				c.AssertAt(i, apps.PathVectorLinkFacts(g, c.Addrs, i))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := c.WaitFixpointCtx(ctx); err != nil {
				t.Fatal(err)
			}
			if v := c.Violations(); len(v) != 0 {
				t.Fatalf("%d violations, first: %v", len(v), v[0])
			}
			if err := (&apps.PathVectorResult{Graph: g, Cluster: c}).ValidateShortestPaths(); err != nil {
				t.Error(err)
			}
		})
	}

	t.Run("policy mismatch", func(t *testing.T) {
		dc := &cluster.Config{Policy: "NoAuth", Nodes: []cluster.NodeConfig{{Principal: "p0", Addr: "127.0.0.1:7100"}}}
		if _, err := core.NewClusterFromConfig(dc, core.ClusterConfig{Policy: core.PolicyConfig{Auth: core.AuthHMAC}, Query: apps.PathVectorQuery}); err == nil {
			t.Error("a policy other than the config's was accepted")
		}
	})
}
