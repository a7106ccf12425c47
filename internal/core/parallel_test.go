package core

import (
	"bytes"
	"errors"
	"log/slog"
	"runtime"
	"strings"
	"testing"
	"time"

	"secureblox/internal/datalog"
	"secureblox/internal/obs"
	"secureblox/internal/seccrypto"
	"secureblox/internal/transport"
)

// The N Build calls run on several workers and each writes its own slot:
// every per-node slice of a 24-node cluster is aligned by index, the node at
// i is principal i with keystore i, directory entry i and the i-th slice of
// the entity-id space, and the set-up line reports its three shares.
func TestParallelAssemblyAlignsEverythingByIndex(t *testing.T) {
	const n = 24
	c, err := NewCluster(ClusterConfig{N: n, Policy: PolicyConfig{Auth: AuthRSA}, Query: reachableQuery, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, l := range []int{len(c.Nodes), len(c.Principals), len(c.Addrs), len(c.KeyStores), len(c.Directory.Members)} {
		if l != n {
			t.Fatalf("per-node slices have lengths %d/%d/%d/%d/%d, want %d each", len(c.Nodes), len(c.Principals),
				len(c.Addrs), len(c.KeyStores), len(c.Directory.Members), n)
		}
	}
	for i, node := range c.Nodes {
		p, m, ks := PrincipalName(i), c.Directory.Members[i], c.KeyStores[i]
		if node == nil {
			t.Fatalf("Nodes[%d] was never written", i)
		}
		if node.Principal != p || c.Principals[i] != p || m.Principal != p || ks.Self != p {
			t.Errorf("index %d: node %s, principal %s, member %s, keystore %s; want %s everywhere",
				i, node.Principal, c.Principals[i], m.Principal, ks.Self, p)
		}
		if c.Addrs[i] != NodeAddr(i) || m.Addr != NodeAddr(i) {
			t.Errorf("index %d: address %s, directory %s, want %s", i, c.Addrs[i], m.Addr, NodeAddr(i))
		}
		if want := int64(i+1) << 40; node.WS.EntityBase != want {
			t.Errorf("index %d: EntityBase %#x, want %#x", i, node.WS.EntityBase, want)
		}
		own := seccrypto.MarshalPublicKey(&ks.PrivateKey().PublicKey)
		if !bytes.Equal(m.PubKeyDER, own) {
			t.Errorf("index %d: the directory's key for %s is not keystore %d's own", i, p, i)
		}
		// The installed facts are this node's, not a neighbour's.
		if self := node.WS.Tuples("self"); len(self) != 1 || !self[0][0].Equal(datalog.Prin(p)) {
			t.Errorf("index %d: self[] = %v, want %s", i, self, p)
		}
		if got := node.WS.Tuples("private_key"); len(got) != 1 || !bytes.Equal(got[0][0].Bytes(), ks.PrivateKeyDER()) {
			t.Errorf("index %d: private_key[] is not keystore %d's key", i, i)
		}
	}
	recs := obs.LogRecords()
	i := len(recs) - 1
	for i >= 0 && recs[i].Message != "cluster set up" {
		i--
	}
	if i < 0 {
		t.Fatal("NewCluster logged no set-up line")
	}
	fields := map[string]slog.Value{}
	recs[i].Attrs(func(a slog.Attr) bool { fields[a.Key] = a.Value; return true })
	for _, k := range []string{"keys_ms", "compile_ms", "assemble_ms"} {
		if v := fields[k]; v.Kind() != slog.KindFloat64 || v.Float64() <= 0 {
			t.Errorf("set-up line: %s = %v, want a positive duration", k, v)
		}
	}
	if w := fields["workers"]; w.Kind() != slog.KindInt64 || w.Int64() != int64(min(runtime.GOMAXPROCS(0), n)) {
		t.Errorf("set-up line: workers = %v at GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
}

// Every node of a 24-node assembly fails its install at once, on several
// workers: the program compiles, but its own fact violates its constraint in
// every workspace that binds it. The constructor reports the lowest node's
// error, and by the time it returns the network and every worker are gone:
// the caller holds nothing it could release them with.
func TestParallelAssemblyFailureReportsLowestNodeAndReleasesEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	net := transport.NewMemNetwork()
	c, err := NewCluster(ClusterConfig{
		N:      24,
		Policy: PolicyConfig{Auth: AuthRSA, BatchSign: true},
		Query:  "q(1).\nq(X) -> X > 5.",
		Seed:   9,
		Net:    net,
	})
	if err == nil {
		c.Stop()
		t.Fatal("a program violating its own constraint installed")
	}
	if c != nil {
		t.Error("a failed constructor returned a cluster")
	}
	if !strings.Contains(err.Error(), "node "+PrincipalName(0)+":") || !strings.Contains(err.Error(), "constraint violation") {
		t.Errorf("want node %s's violation, got: %v", PrincipalName(0), err)
	}
	for _, addr := range []string{NodeAddr(0), NodeAddr(23), detectorAddr} {
		if err := net.Endpoint(addr).Send(NodeAddr(1), []byte("x")); !errors.Is(err, transport.ErrClosed) {
			t.Errorf("endpoint %s still open after the failed build: %v", addr, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("a failed build leaks goroutines: %d before, %d after", before, now)
	}
}
