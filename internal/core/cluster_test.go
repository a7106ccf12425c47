package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/seccrypto"
	"secureblox/internal/transport"
	"secureblox/internal/transport/transporttest"
	"secureblox/internal/wire"
)

// reachableQuery is the paper's §3.1 motivating example, localized: each
// node stores its outgoing links, advertises its reachable set to its
// neighbours via says, and imports neighbours' advertisements.
const reachableQuery = `
	link(X, Y) -> node(X), node(Y).
	reachable(X, Y) -> node(X), node(Y).
	exportable('reachable).

	reachable(X, Y) <- link(X, Y).
	reachable(X, Y) <- link(X, Z), reachable(Z, Y).

	says['reachable](self[], U, Z, Y) <-
		reachable(Z, Y), principal_node[self[]]=Z,
		link(Z, X), principal_node[U]=X, U != self[].
`

// buildChainOn creates an N-node cluster over the given network and
// asserts symmetric chain links between the nodes' real addresses.
func buildChainOn(t *testing.T, n int, policy PolicyConfig, net transport.Network) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{N: n, Policy: policy, Query: reachableQuery, Seed: 7, Net: net})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Start()
	for i := 0; i < n-1; i++ {
		a, b := datalog.NodeV(c.Addrs[i]), datalog.NodeV(c.Addrs[i+1])
		c.AssertAt(i, []engine.Fact{{Pred: "link", Tuple: datalog.Tuple{a, b}}})
		c.AssertAt(i+1, []engine.Fact{{Pred: "link", Tuple: datalog.Tuple{b, a}}})
	}
	return c
}

func buildChain(t *testing.T, n int, policy PolicyConfig) *Cluster {
	t.Helper()
	return buildChainOn(t, n, policy, nil)
}

// waitFixpoint bounds WaitFixpoint so a detection bug fails the test
// instead of hanging it.
func waitFixpoint(t *testing.T, c *Cluster) time.Duration {
	t.Helper()
	done := make(chan time.Duration, 1)
	go func() { done <- c.WaitFixpoint() }()
	select {
	case d := <-done:
		return d
	case <-time.After(30 * time.Second):
		t.Fatal("distributed fixpoint not reached within 30s")
		return 0
	}
}

// waitProcessed polls until node i has consumed at least want inbound
// datagrams — used to synchronize with out-of-band injections, which the
// termination detector deliberately does not track.
func waitProcessed(t *testing.T, c *Cluster, i int, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Nodes[i].Metrics.MsgsProcessed() < want {
		if time.Now().After(deadline) {
			t.Fatalf("node %d processed %d messages, want %d", i, c.Nodes[i].Metrics.MsgsProcessed(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkFullReachability verifies that every node has learned a route from
// itself to every other node (self-loops via symmetric links also exist and
// are excluded from the count).
func checkFullReachability(t *testing.T, c *Cluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		dests := map[string]bool{}
		for _, tp := range c.Query(i, "reachable") {
			if tp[0].Str == c.Addrs[i] && tp[1].Str != c.Addrs[i] {
				dests[tp[1].Str] = true
			}
		}
		if len(dests) != n-1 {
			t.Errorf("node %d: wants %d distinct reachable destinations, got %d (%v)",
				i, n-1, len(dests), dests)
		}
	}
}

func TestDistributedReachableAllSchemes(t *testing.T) {
	const n = 4
	policies := []PolicyConfig{
		{Auth: AuthNone},
		{Auth: AuthHMAC},
		{Auth: AuthRSA},
		{Auth: AuthRSA, Encrypt: true},
		{Auth: AuthNone, Encrypt: true},
		{Auth: AuthRSA, BatchSign: true},
		{Auth: AuthRSA, BatchSign: true, Encrypt: true},
	}
	for _, p := range policies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			c := buildChain(t, n, p)
			defer c.Stop()
			waitFixpoint(t, c)
			if v := c.Violations(); len(v) != 0 {
				t.Fatalf("unexpected violations: %v", v)
			}
			checkFullReachability(t, c, n)
		})
	}
}

// TestClusterKeysFollowPolicy: RSA keypairs exist exactly when the policy
// signs with them; pairwise secrets are drawn under every policy. (The keys
// themselves cannot be pinned to the seed: crypto/rsa deliberately reads a
// random number of bytes, so two setups from one seed already differ.)
func TestClusterKeysFollowPolicy(t *testing.T) {
	for _, p := range []PolicyConfig{{Auth: AuthNone}, {Auth: AuthHMAC}, {Auth: AuthNone, Encrypt: true}, {Auth: AuthRSA}} {
		c, err := NewCluster(ClusterConfig{N: 3, Policy: p, Query: reachableQuery, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		for i, ks := range c.KeyStores {
			peer := c.Principals[(i+1)%3]
			if got, want := ks.PrivateKey() != nil, p.Auth == AuthRSA; got != want {
				t.Errorf("%s: node %d holds an RSA key: %v, want %v", p.Name(), i, got, want)
			}
			if got, want := ks.PublicKeyDER(peer) != nil, p.Auth == AuthRSA; got != want {
				t.Errorf("%s: node %d knows %s's public key: %v, want %v", p.Name(), i, peer, got, want)
			}
			if len(ks.Secret(peer)) == 0 {
				t.Errorf("%s: node %d lacks a pairwise secret with %s", p.Name(), i, peer)
			}
		}
		c.Stop()
	}
}

// TestClusterOverUDPMatchesMemnet is the acceptance check for the
// transport-agnostic driver: the same scenario, run over the in-process
// network and over real UDP loopback sockets, reaches the same fixpoint —
// with termination detected purely via wire-level control messages in both
// cases.
func TestClusterOverUDPMatchesMemnet(t *testing.T) {
	const n = 3
	for _, p := range []PolicyConfig{{Auth: AuthNone}, {Auth: AuthRSA}} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			// relabel maps each cluster's concrete addresses onto stable
			// node indices so results are comparable across transports.
			relabel := func(c *Cluster) []string {
				idx := map[string]string{}
				for i, a := range c.Addrs {
					idx[a] = PrincipalName(i)
				}
				var out []string
				for i := 0; i < n; i++ {
					for _, tp := range c.Query(i, "reachable") {
						out = append(out, idx[tp[0].Str]+"->"+idx[tp[1].Str]+"@"+PrincipalName(i))
					}
				}
				sort.Strings(out)
				return out
			}
			mem := buildChainOn(t, n, p, nil)
			defer mem.Stop()
			waitFixpoint(t, mem)

			udp := buildChainOn(t, n, p, transport.NewUDPNetwork())
			defer udp.Stop()
			waitFixpoint(t, udp)

			if v := append(mem.Violations(), udp.Violations()...); len(v) != 0 {
				t.Fatalf("violations: %v", v)
			}
			checkFullReachability(t, udp, n)
			got, want := relabel(udp), relabel(mem)
			if len(got) != len(want) {
				t.Fatalf("udp derived %d reachable facts, memnet %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("fixpoint mismatch at %d: udp %s, memnet %s", i, got[i], want[i])
				}
			}
		})
	}
}

func TestBandwidthOrderingAcrossSchemes(t *testing.T) {
	traffic := map[string]float64{}
	for _, p := range []PolicyConfig{{Auth: AuthNone}, {Auth: AuthHMAC}, {Auth: AuthRSA}} {
		c := buildChain(t, 4, p)
		waitFixpoint(t, c)
		traffic[p.Name()] = c.MeanNodeTrafficKB()
		c.Stop()
	}
	if !(traffic["NoAuth"] < traffic["HMAC"] && traffic["HMAC"] < traffic["RSA"]) {
		t.Errorf("bandwidth ordering should be NoAuth < HMAC < RSA, got %v", traffic)
	}
}

func TestForgedSignatureRejectedUnderRSA(t *testing.T) {
	c := buildChain(t, 3, PolicyConfig{Auth: AuthRSA})
	defer c.Stop()
	waitFixpoint(t, c)
	before := len(c.Query(0, "reachable"))
	processed := c.Nodes[0].Metrics.MsgsProcessed()

	// An attacker forges an advertisement claiming to come from p1's node
	// with a bogus signature and delivers it straight to node 0's endpoint.
	// The payload carries only the said values; the sender principal is
	// resolved from the claimed source address via principal_node.
	forged := wire.EncodePayload(wire.Payload{
		Pred: "reachable",
		Sig:  []byte("forged signature bytes"),
		Vals: datalog.Tuple{datalog.NodeV("6.6.6.6:666"), datalog.NodeV("6.6.6.6:666")},
	})
	evil := c.MemNet().Endpoint("6.6.6.6:666")
	msg := wire.EncodeMessage(wire.Message{From: c.Addrs[1], Payloads: [][]byte{forged}})
	if err := evil.Send(c.Addrs[0], msg); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, c, 0, processed+1)
	waitFixpoint(t, c)

	if len(c.Nodes[0].Violations()) != 1 {
		t.Fatalf("forged batch should be rejected, violations: %v", c.Nodes[0].Violations())
	}
	if got := len(c.Query(0, "reachable")); got != before {
		t.Errorf("forged advertisement polluted reachable: %d -> %d", before, got)
	}
	for _, tp := range c.Query(0, "reachable") {
		if strings.Contains(tp.String(), "6.6.6.6") {
			t.Errorf("attacker fact leaked: %s", tp)
		}
	}
}

func TestForgedTrafficRejectedUnderBatchSigning(t *testing.T) {
	// Batch-signed RSA must keep the per-tuple scheme's threat coverage:
	// an unsigned data message is rejected for lacking batch coverage, and
	// a batch envelope with a bogus aggregate signature fails verification.
	c := buildChain(t, 3, PolicyConfig{Auth: AuthRSA, BatchSign: true})
	defer c.Stop()
	waitFixpoint(t, c)
	before := len(c.Query(0, "reachable"))
	beforeBatch := len(c.Query(0, "export_batch")) // honest envelopes' rows
	processed := c.Nodes[0].Metrics.MsgsProcessed()

	forged := wire.EncodePayload(wire.Payload{
		Pred: "reachable",
		Vals: datalog.Tuple{datalog.NodeV("6.6.6.6:666"), datalog.NodeV("6.6.6.6:666")},
	})
	evil := c.MemNet().Endpoint("6.6.6.6:666")

	// 1. A plain (non-batch) data message claiming a real peer: no
	// export_batch coverage, so the coverage constraint rejects it.
	plain := wire.EncodeMessage(wire.Message{From: c.Addrs[1], Payloads: [][]byte{forged}})
	if err := evil.Send(c.Addrs[0], plain); err != nil {
		t.Fatal(err)
	}
	// 2. A batch envelope with a forged aggregate signature.
	env := wire.EncodeMessage(wire.Message{
		Kind:     wire.MsgBatch,
		From:     c.Addrs[1],
		Sig:      []byte("forged batch signature"),
		Payloads: [][]byte{forged},
	})
	if err := evil.Send(c.Addrs[0], env); err != nil {
		t.Fatal(err)
	}
	// 3. A batch envelope spoofing the receiver's own address: still needs
	// a signature only the receiver itself could have produced.
	spoof := wire.EncodeMessage(wire.Message{
		Kind:     wire.MsgBatch,
		From:     c.Addrs[0],
		Sig:      []byte("not self-signed either"),
		Payloads: [][]byte{forged},
	})
	if err := evil.Send(c.Addrs[0], spoof); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, c, 0, processed+3)
	waitFixpoint(t, c)

	if v := c.Nodes[0].Violations(); len(v) != 3 {
		t.Fatalf("want 3 rejections (uncovered, bad batch sig, spoofed self), got %v", v)
	}
	if got := len(c.Query(0, "reachable")); got != before {
		t.Errorf("forged traffic polluted reachable: %d -> %d", before, got)
	}
	if got := len(c.Query(0, "export_batch")); got != beforeBatch {
		t.Errorf("rejected envelopes left export_batch residue: %d -> %d rows", beforeBatch, got)
	}

	// The signed unit is a group of envelopes. signGroup is what p1 would put
	// on the wire for one transaction shipping three envelopes — really signed
	// with p1's key, each envelope saying one fact of its own.
	signGroup := func(tag int) []wire.Message {
		var msgs []wire.Message
		var digests []byte
		for i := 0; i < 3; i++ {
			said := wire.EncodePayload(wire.Payload{
				Pred: "reachable",
				Vals: datalog.Tuple{datalog.NodeV(c.Addrs[1]), datalog.NodeV(fmt.Sprintf("9.9.%d.%d:9", tag, i))},
			})
			msgs = append(msgs, wire.Message{Kind: wire.MsgBatch, From: c.Addrs[1], Payloads: [][]byte{said}})
			digests = append(digests, wire.BatchDigest(msgs[i].Payloads)...)
		}
		sig, err := seccrypto.RSASign(c.KeyStores[1].PrivateKey(), wire.GroupRoot(digests))
		if err != nil {
			t.Fatal(err)
		}
		for i := range msgs {
			msgs[i].Sig, msgs[i].Pos, msgs[i].Siblings = sig, uint32(i), wire.Siblings(digests, i)
		}
		return msgs
	}
	// deliver sends the envelopes over ep and waits until node 0 has consumed
	// those that arrived and the cluster is quiet again.
	deliver := func(ep transport.Transport, msgs ...wire.Message) (arrived int) {
		t.Helper()
		processed := c.Nodes[0].Metrics.MsgsProcessed()
		sentBefore := c.MemNet().Stats(evil.Addr()).MsgsSent
		for _, m := range msgs {
			if err := ep.Send(c.Addrs[0], wire.EncodeMessage(m)); err != nil {
				t.Fatal(err)
			}
		}
		arrived = int(c.MemNet().Stats(evil.Addr()).MsgsSent - sentBefore)
		waitProcessed(t, c, 0, processed+int64(arrived))
		waitFixpoint(t, c)
		return arrived
	}
	learned := func(tag, i int) bool {
		for _, tp := range c.Query(0, "reachable") {
			if tp[0].Str == c.Addrs[1] && tp[1].Str == fmt.Sprintf("9.9.%d.%d:9", tag, i) {
				return true
			}
		}
		return false
	}

	// Each envelope of a group verifies on its own: one delivered alone, then
	// the other two in reverse order, then a group that loses envelopes on a
	// lossy link — whatever arrives is accepted, nothing is a violation.
	g := signGroup(1)
	deliver(evil, g[1])
	if !learned(1, 1) || learned(1, 0) || learned(1, 2) {
		t.Error("an envelope delivered without its siblings must commit exactly what it carries")
	}
	deliver(evil, g[2], g[0])
	if !learned(1, 0) || !learned(1, 2) {
		t.Error("a group's envelopes delivered out of order must both commit")
	}
	g = signGroup(2)
	arrived := deliver(transporttest.Lossy(evil, 3, 0.5, 0, 0), g...)
	if arrived == 0 || arrived == len(g) {
		t.Fatalf("the lossy link delivered %d of %d envelopes; the seed must drop some and deliver some", arrived, len(g))
	}
	survivors := 0
	for i := range g {
		if learned(2, i) {
			survivors++
		}
	}
	if survivors != arrived {
		t.Errorf("%d envelopes survived the lossy link, %d committed", arrived, survivors)
	}
	if v := c.Nodes[0].Violations(); len(v) != 3 {
		t.Fatalf("genuine envelopes, however delivered, must not be violations: %v", v)
	}

	// What a genuine envelope says about its group is covered too: change a
	// sibling digest or the position and the root is no longer the one p1
	// signed (one rollback each); name a position outside the group or more
	// siblings than a group can have and the decoder drops it unread.
	before, beforeBatch = len(c.Query(0, "reachable")), len(c.Query(0, "export_batch"))
	g = signGroup(3)
	tamperedSibling, wrongPosition, beyondGroup, overMax := g[1], g[1], g[1], g[1]
	tamperedSibling.Siblings = append([]byte(nil), g[1].Siblings...)
	tamperedSibling.Siblings[wire.DigestSize+1] ^= 0xFF
	wrongPosition.Pos = 0
	beyondGroup.Pos = 3
	overMax.Siblings = make([]byte, wire.MaxGroup*wire.DigestSize)
	deliver(evil, tamperedSibling, wrongPosition, beyondGroup, overMax)
	if v := c.Nodes[0].Violations(); len(v) != 5 {
		t.Errorf("want 2 more rejections (tampered sibling, wrong position) and 2 silent drops, got %d violations: %v", len(v), v[3:])
	}
	if got := len(c.Query(0, "reachable")); got != before {
		t.Errorf("tampered group fields polluted reachable: %d -> %d", before, got)
	}
	if got := len(c.Query(0, "export_batch")); got != beforeBatch {
		t.Errorf("tampered group fields left export_batch residue: %d -> %d rows", beforeBatch, got)
	}
}

// TestEqualSeedsReproduceSharedSecretsAndShippedBytes pins what
// ClusterConfig.Seed promises: equal seeds give every node the same pairwise
// secrets under every policy — so a run that authenticates and encrypts with
// them ships byte-identical export tuples — and says nothing about RSA keys.
func TestEqualSeedsReproduceSharedSecretsAndShippedBytes(t *testing.T) {
	exports := func(p PolicyConfig) (secret []byte, shipped []string) {
		c := buildChain(t, 3, p) // Seed 7
		defer c.Stop()
		waitFixpoint(t, c)
		for i := range c.Nodes {
			for _, tp := range c.Query(i, "export") {
				shipped = append(shipped, tp.String())
			}
		}
		sort.Strings(shipped)
		return c.KeyStores[0].Secret(PrincipalName(1)), shipped
	}
	hmacAES := PolicyConfig{Auth: AuthHMAC, Encrypt: true}
	s1, e1 := exports(hmacAES)
	s2, e2 := exports(hmacAES)
	if len(s1) == 0 || string(s1) != string(s2) {
		t.Error("equal seeds gave different pairwise secrets")
	}
	if len(e1) == 0 || strings.Join(e1, "\n") != strings.Join(e2, "\n") {
		t.Errorf("equal seeds shipped different bytes under %s: %d vs %d export tuples", hmacAES.Name(), len(e1), len(e2))
	}
	// The secrets do not depend on whether RSA keypairs are generated too.
	if s3, _ := exports(PolicyConfig{Auth: AuthRSA, Encrypt: true}); string(s3) != string(s1) {
		t.Error("pairwise secrets under an RSA policy differ from the same seed's under HMAC")
	}
}

func TestBatchSigningRequiresRSA(t *testing.T) {
	_, err := NewCluster(ClusterConfig{
		N: 2, Policy: PolicyConfig{Auth: AuthHMAC, BatchSign: true}, Query: reachableQuery,
	})
	if err == nil || !strings.Contains(err.Error(), "BatchSign") {
		t.Errorf("BatchSign without RSA should be rejected, got %v", err)
	}
}

func TestBatchSigningReducesSignOps(t *testing.T) {
	// The acceptance check for footnote 2: per fixpoint, batch signing
	// performs strictly fewer RSA private-key operations than inline
	// per-tuple signing — one per shipped envelope (memoized) instead of
	// one per distinct said fact.
	run := func(p PolicyConfig) int64 {
		before := seccrypto.SignOps()
		c := buildChain(t, 4, p)
		waitFixpoint(t, c)
		if v := c.Violations(); len(v) != 0 {
			t.Fatalf("%s: violations %v", p.Name(), v)
		}
		checkFullReachability(t, c, 4)
		c.Stop()
		return seccrypto.SignOps() - before
	}
	inline := run(PolicyConfig{Auth: AuthRSA})
	batched := run(PolicyConfig{Auth: AuthRSA, BatchSign: true})
	if inline == 0 {
		t.Fatal("inline RSA run performed no signatures")
	}
	if batched >= inline {
		t.Errorf("batch signing did not reduce RSA sign ops: inline=%d batched=%d", inline, batched)
	}
	t.Logf("RSA sign ops per fixpoint: inline=%d batched=%d", inline, batched)
}

func TestForgedAdvertisementAcceptedUnderNoAuth(t *testing.T) {
	// The flip side of the paper's tradeoff: NoAuth verifies only that the
	// claimed principal is known; a forged message naming a real principal
	// is accepted. (This is why a hostile world needs RSA/HMAC.)
	c := buildChain(t, 3, PolicyConfig{Auth: AuthNone})
	defer c.Stop()
	waitFixpoint(t, c)
	processed := c.Nodes[0].Metrics.MsgsProcessed()

	forged := wire.EncodePayload(wire.Payload{
		Pred: "reachable",
		Vals: datalog.Tuple{datalog.NodeV(c.Addrs[1]), datalog.NodeV("6.6.6.6:666")},
	})
	evil := c.MemNet().Endpoint("6.6.6.6:666")
	msg := wire.EncodeMessage(wire.Message{From: c.Addrs[1], Payloads: [][]byte{forged}})
	if err := evil.Send(c.Addrs[0], msg); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, c, 0, processed+1)
	waitFixpoint(t, c)

	found := false
	for _, tp := range c.Query(0, "reachable") {
		if strings.Contains(tp.String(), "6.6.6.6") {
			found = true
		}
	}
	if !found {
		t.Error("NoAuth should accept a forged advertisement from a known principal")
	}
	if len(c.Nodes[0].Violations()) != 0 {
		t.Errorf("NoAuth should not reject: %v", c.Nodes[0].Violations())
	}
}

func TestMessageFromUnknownNodeIgnored(t *testing.T) {
	// A message claiming to come from an address with no principal_node
	// entry never produces a says fact: the import rule cannot resolve the
	// sender principal, so the payload is inert data.
	c := buildChain(t, 3, PolicyConfig{Auth: AuthNone})
	defer c.Stop()
	waitFixpoint(t, c)
	before := len(c.Query(0, "reachable"))
	processed := c.Nodes[0].Metrics.MsgsProcessed()

	forged := wire.EncodePayload(wire.Payload{
		Pred: "reachable",
		Vals: datalog.Tuple{datalog.NodeV(c.Addrs[1]), datalog.NodeV("6.6.6.6:666")},
	})
	evil := c.MemNet().Endpoint("6.6.6.6:666")
	msg := wire.EncodeMessage(wire.Message{From: "6.6.6.6:666", Payloads: [][]byte{forged}})
	if err := evil.Send(c.Addrs[0], msg); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, c, 0, processed+1)
	waitFixpoint(t, c)
	if got := len(c.Query(0, "reachable")); got != before {
		t.Errorf("message from unknown node changed reachable: %d -> %d", before, got)
	}
}

func TestEncryptedPayloadsAreOpaque(t *testing.T) {
	// With AES the wire bytes must not contain the plaintext payload
	// structure (predicate name "reachable"). Control probes flow over the
	// same network, so only data messages are inspected.
	var deliverMu sync.Mutex
	var sawPlain, sawMsgs bool
	net := transport.NewMemNetwork()
	net.OnDeliver = func(_, _ string, data []byte) {
		if msg, err := wire.DecodeMessage(data); err != nil || msg.Kind != wire.MsgData {
			return
		}
		deliverMu.Lock()
		defer deliverMu.Unlock()
		sawMsgs = true
		if strings.Contains(string(data), "reachable") {
			sawPlain = true
		}
	}
	c, err := NewCluster(ClusterConfig{N: 3, Policy: PolicyConfig{Auth: AuthNone, Encrypt: true}, Query: reachableQuery, Seed: 9, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for i := 0; i < 2; i++ {
		a, b := datalog.NodeV(c.Addrs[i]), datalog.NodeV(c.Addrs[i+1])
		c.AssertAt(i, []engine.Fact{{Pred: "link", Tuple: datalog.Tuple{a, b}}})
		c.AssertAt(i+1, []engine.Fact{{Pred: "link", Tuple: datalog.Tuple{b, a}}})
	}
	defer c.Stop()
	waitFixpoint(t, c)
	deliverMu.Lock()
	gotMsgs, gotPlain := sawMsgs, sawPlain
	deliverMu.Unlock()
	if !gotMsgs {
		t.Fatal("no messages observed")
	}
	if gotPlain {
		t.Error("AES-encrypted payloads leaked plaintext predicate names")
	}
	if len(c.Violations()) != 0 {
		t.Fatalf("violations: %v", c.Violations())
	}
	if got := len(c.Query(0, "reachable")); got == 0 {
		t.Error("encrypted pipeline derived nothing")
	}
}

func TestRetractionPrunesClusterSentSets(t *testing.T) {
	// Cluster-level retraction: dropping a link retracts the derived
	// advertisements, and the nodes' export-dedup sets shrink with the
	// export extent instead of growing forever (ROADMAP follow-up).
	c := buildChain(t, 3, PolicyConfig{Auth: AuthNone})
	defer c.Stop()
	waitFixpoint(t, c)
	if c.Nodes[0].SentSetSize() == 0 {
		t.Fatal("node 0 shipped nothing")
	}
	a, b := datalog.NodeV(c.Addrs[0]), datalog.NodeV(c.Addrs[1])
	c.RetractAt(0, []engine.Fact{{Pred: "link", Tuple: datalog.Tuple{a, b}}})
	waitFixpoint(t, c)
	if got := c.Nodes[0].SentSetSize(); got != 0 {
		t.Errorf("node 0 sent-set not pruned after losing its only link: %d entries", got)
	}
}

func TestAuthorizationWriteAccess(t *testing.T) {
	// §3.2 authorization: without writeAccess[T](sender), a said fact is
	// rejected.
	cfg := ClusterConfig{
		N:      2,
		Policy: PolicyConfig{Auth: AuthNone, Authorization: true},
		Query:  reachableQuery,
		Seed:   5,
		// deliberately NOT granting write access
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	a, b := datalog.NodeV(c.Addrs[0]), datalog.NodeV(c.Addrs[1])
	c.AssertAt(0, []engine.Fact{{Pred: "link", Tuple: datalog.Tuple{a, b}}})
	c.AssertAt(1, []engine.Fact{{Pred: "link", Tuple: datalog.Tuple{b, a}}})
	waitFixpoint(t, c)
	if len(c.Violations()) == 0 {
		t.Error("says without writeAccess should violate the authorization constraint")
	}

	// And with the grant, everything flows.
	cfg.GrantWriteAccess = true
	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	defer c2.Stop()
	a2, b2 := datalog.NodeV(c2.Addrs[0]), datalog.NodeV(c2.Addrs[1])
	c2.AssertAt(0, []engine.Fact{{Pred: "link", Tuple: datalog.Tuple{a2, b2}}})
	c2.AssertAt(1, []engine.Fact{{Pred: "link", Tuple: datalog.Tuple{b2, a2}}})
	waitFixpoint(t, c2)
	if v := c2.Violations(); len(v) != 0 {
		t.Fatalf("granted cluster should not violate: %v", v)
	}
	if len(c2.Query(0, "reachable")) == 0 {
		t.Error("granted cluster derived nothing")
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]PolicyConfig{
		"NoAuth":     {},
		"NoAuth-AES": {Encrypt: true},
		"HMAC":       {Auth: AuthHMAC},
		"RSA-AES":    {Auth: AuthRSA, Encrypt: true},
	}
	for want, cfg := range cases {
		if got := cfg.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}
