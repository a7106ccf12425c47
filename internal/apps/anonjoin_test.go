package apps

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"secureblox/internal/cluster"
	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/transport"
	"secureblox/internal/wire"
)

// wirePayload builds a raw message carrying one 'anonwrap payload with the
// given link id and ciphertext, as an attacker could inject.
func wirePayload(c *core.Cluster, pred string, id int64, ct []byte) []byte {
	p := wire.EncodePayload(wire.Payload{
		Pred: pred,
		Vals: datalog.Tuple{datalog.Int64(id), datalog.BytesV(ct)},
	})
	return wire.EncodeMessage(wire.Message{From: c.Addrs[0], Payloads: [][]byte{p}})
}

// anon runs the anonymous join on n nodes (n-2 relays) from seed.
func anon(t *testing.T, n int, seed int64) *Outcome {
	t.Helper()
	return runRow(t, "anonjoin", cluster.WorkloadConfig{Seed: seed}, n, core.PolicyConfig{}, nil)
}

func TestAnonJoinCorrectness(t *testing.T) {
	if o := anon(t, 3, 31); o.Wrong != nil {
		t.Fatalf("anonymous join: %s", o.Answer)
	}
}

// A circuit needs a relay: a cluster of two is refused before it is built.
func TestAnonJoinRejectsImpossibleConfigs(t *testing.T) {
	w, err := Lookup("anonjoin")
	if err != nil {
		t.Fatal(err)
	}
	o, err := w.Run(context.Background(), cluster.WorkloadConfig{}, 2, core.PolicyConfig{}, nil)
	if err == nil {
		o.Cluster.Stop()
		t.Fatalf("two nodes: accepted, reported %s", o.Answer)
	}
	if !strings.Contains(err.Error(), "at least one relay") {
		t.Errorf("two nodes: %v", err)
	}
}

func TestAnonJoinMultiRelay(t *testing.T) {
	if o := anon(t, 5, 32); o.Wrong != nil {
		t.Fatalf("3-relay circuit: %s", o.Answer)
	}
}

func TestAnonJoinEndpointDoesNotLearnInitiator(t *testing.T) {
	// The endpoint must see requests only from its circuit predecessor:
	// no message from the initiator's address may arrive there, and its
	// workspace must hold no fact naming the initiator's node beyond the
	// static directory.
	type delivery struct{ from, claimed, to string }
	var mu sync.Mutex
	var seen []delivery
	net := transport.NewMemNetwork()
	net.OnDeliver = func(from, to string, data []byte) {
		if m, err := wire.DecodeMessage(data); err == nil && m.Kind != wire.MsgControl {
			mu.Lock()
			seen = append(seen, delivery{from, m.From, to})
			mu.Unlock()
		}
	}
	c := runRow(t, "anonjoin", cluster.WorkloadConfig{Seed: 33}, 4, core.PolicyConfig{}, net).Cluster
	endpoint := len(c.Nodes) - 1
	endAddr := c.Addrs[endpoint]
	initAddr := c.Addrs[0]

	// Every data datagram that reached the endpoint came from, and claimed
	// to come from, its predecessor relay, never the initiator.
	mu.Lock()
	reached := 0
	for _, d := range seen {
		if d.to != endAddr {
			continue
		}
		reached++
		if d.from != c.Addrs[endpoint-1] || d.claimed != c.Addrs[endpoint-1] {
			t.Errorf("endpoint received a datagram from %s claiming %s, want its predecessor %s (initiator %s)",
				d.from, d.claimed, c.Addrs[endpoint-1], initAddr)
		}
	}
	mu.Unlock()
	if reached == 0 {
		t.Fatal("no data datagram reached the endpoint")
	}
	// The circuit identifier, not a principal, names the requester.
	in := c.Query(endpoint, "anon_says_id_in$req_publicdata")
	if len(in) == 0 {
		t.Fatal("endpoint received no anonymous requests")
	}
	for _, tp := range in {
		if tp[0].Str != "c1" {
			t.Errorf("request attributed to %s, want circuit handle", tp[0])
		}
	}
}

func TestAnonJoinRelaySeesOnlyCiphertext(t *testing.T) {
	// Capture the raw payload a relay forwards: it must differ from both
	// the initiator's link and the plaintext serialization (layered
	// encryption re-randomizes per hop).
	c := anon(t, 3, 34).Cluster

	// Compare what crossed link0 (init→relay) vs link1 (relay→endpoint):
	// the relay's stored anon_export payloads for forwarded traffic.
	relayExports := c.Query(1, "anon_export")
	var toEndpoint, atRelay [][]byte
	for _, tp := range relayExports {
		switch tp[0].Str {
		case c.Addrs[2]:
			toEndpoint = append(toEndpoint, tp[2].Bytes())
		case c.Addrs[1]:
			atRelay = append(atRelay, tp[2].Bytes())
		}
	}
	if len(toEndpoint) == 0 || len(atRelay) == 0 {
		t.Fatal("relay did not forward traffic")
	}
	for _, in := range atRelay {
		for _, out := range toEndpoint {
			if string(in) == string(out) {
				t.Error("relay forwarded identical bytes: no layer was peeled")
			}
		}
	}
	// Neither direction's ciphertext contains the plaintext payload marker.
	for _, b := range append(atRelay, toEndpoint...) {
		if strings.Contains(string(b), "req_publicdata") {
			t.Error("relay saw plaintext payload structure")
		}
	}
}

func TestAnonJoinNoSignaturesOnCircuit(t *testing.T) {
	// §6.2 footnote: anonymous payloads are serialized WITHOUT signatures.
	c := anon(t, 3, 35).Cluster
	for i := range c.Nodes {
		for _, pred := range c.Nodes[i].WS.Predicates() {
			if strings.HasPrefix(pred, "sig$") && len(c.Query(i, pred)) > 0 {
				t.Errorf("node %d holds signatures %s on an anonymous exchange", i, pred)
			}
		}
	}
}

func TestAnonJoinGarbageCiphertextInert(t *testing.T) {
	// A garbage onion payload injected on the wire must not produce
	// results: the decrypt/deserialize chain simply fails to match, so
	// the fact is inert data.
	c := anon(t, 3, 36).Cluster
	before := len(c.Query(0, "result"))

	garbage := wirePayload(c, "anonwrap", 1000, []byte("not a valid onion ciphertext"))
	evil := c.MemNet().Endpoint("6.6.6.6:666")
	processed := c.Nodes[1].MsgsRecv()
	if err := evil.Send(c.Addrs[1], garbage); err != nil {
		t.Fatal(err)
	}
	// Out-of-band injections are invisible to the termination detector, so
	// wait for the relay to consume the datagram before settling.
	deadline := time.Now().Add(10 * time.Second)
	for c.Nodes[1].MsgsRecv() < processed+1 {
		if time.Now().After(deadline) {
			t.Fatal("relay never consumed the injected datagram")
		}
		time.Sleep(time.Millisecond)
	}
	c.WaitFixpoint()

	if got := len(c.Query(0, "result")); got != before {
		t.Errorf("tampering changed results: %d -> %d", before, got)
	}
}
