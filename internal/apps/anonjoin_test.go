package apps

import (
	"strings"
	"testing"
	"time"

	"secureblox/internal/core"
	"secureblox/internal/datalog"
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

func TestAnonJoinCorrectness(t *testing.T) {
	res, err := RunAnonJoin(AnonJoinConfig{Relays: 1, Interests: 8, PublicRows: 50, Overlap: 5, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	if v := res.Cluster.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v[0])
	}
	if res.Results != res.Expected {
		t.Fatalf("anonymous join returned %d rows, want %d", res.Results, res.Expected)
	}
}

// A config whose overlap exceeds either table asks for matches that cannot
// exist (Expected would exceed the rows there are), and a circuit needs a
// relay: all three are refused before a cluster is built.
func TestAnonJoinRejectsImpossibleConfigs(t *testing.T) {
	for _, cfg := range []AnonJoinConfig{
		{Relays: 1, Interests: 2, PublicRows: 10, Overlap: 4},
		{Relays: 1, Interests: 8, PublicRows: 3, Overlap: 4},
		{Relays: 0, Interests: 8, PublicRows: 10, Overlap: 4},
	} {
		if res, err := RunAnonJoin(cfg); err == nil {
			res.Cluster.Stop()
			t.Errorf("%+v: accepted, reported %d/%d", cfg, res.Results, res.Expected)
		}
	}
}

func TestAnonJoinMultiRelay(t *testing.T) {
	res, err := RunAnonJoin(AnonJoinConfig{Relays: 3, Interests: 6, PublicRows: 30, Overlap: 4, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	if res.Results != res.Expected {
		t.Fatalf("3-relay circuit returned %d rows, want %d", res.Results, res.Expected)
	}
}

func TestAnonJoinEndpointDoesNotLearnInitiator(t *testing.T) {
	// The endpoint must see requests only from its circuit predecessor:
	// no message from the initiator's address may arrive there, and its
	// workspace must hold no fact naming the initiator's node beyond the
	// static directory.
	res, err := RunAnonJoin(AnonJoinConfig{Relays: 2, Interests: 4, PublicRows: 20, Overlap: 3, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	endpoint := len(res.Cluster.Nodes) - 1
	endAddr := res.Cluster.Addrs[endpoint]
	initAddr := res.Cluster.Addrs[0]

	// Every export fact at the endpoint must name the predecessor relay as
	// its source, never the initiator.
	for _, tp := range res.Cluster.Query(endpoint, "export") {
		if tp[0].Str != endAddr {
			continue // its own outgoing exports
		}
		if tp[1].Str == initAddr {
			t.Errorf("endpoint received a message directly from the initiator: %s", tp)
		}
	}
	// The circuit identifier, not a principal, names the requester.
	in := res.Cluster.Query(endpoint, "anon_says_id_in$req_publicdata")
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
	cfg := AnonJoinConfig{Relays: 1, Interests: 2, PublicRows: 10, Overlap: 2, Seed: 34}
	// run manually to hook OnDeliver before Start
	res, err := RunAnonJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()

	// Compare what crossed link0 (init→relay) vs link1 (relay→endpoint):
	// the relay's stored anon_export payloads for forwarded traffic.
	relayExports := res.Cluster.Query(1, "anon_export")
	var toEndpoint, atRelay [][]byte
	for _, tp := range relayExports {
		switch tp[0].Str {
		case res.Cluster.Addrs[2]:
			toEndpoint = append(toEndpoint, tp[2].Bytes())
		case res.Cluster.Addrs[1]:
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
	res, err := RunAnonJoin(AnonJoinConfig{Relays: 1, Interests: 2, PublicRows: 10, Overlap: 1, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	for i := range res.Cluster.Nodes {
		for _, pred := range res.Cluster.Nodes[i].WS.Predicates() {
			if strings.HasPrefix(pred, "sig$") && len(res.Cluster.Query(i, pred)) > 0 {
				t.Errorf("node %d holds signatures %s on an anonymous exchange", i, pred)
			}
		}
	}
}

func TestAnonJoinGarbageCiphertextInert(t *testing.T) {
	// A garbage onion payload injected on the wire must not produce
	// results: the decrypt/deserialize chain simply fails to match, so
	// the fact is inert data.
	res, err := RunAnonJoin(AnonJoinConfig{Relays: 1, Interests: 2, PublicRows: 10, Overlap: 2, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Stop()
	before := res.Results

	garbage := wirePayload(res.Cluster, "anonwrap", 1000, []byte("not a valid onion ciphertext"))
	evil := res.Cluster.MemNet().Endpoint("6.6.6.6:666")
	processed := res.Cluster.Nodes[1].Metrics.MsgsProcessed()
	if err := evil.Send(res.Cluster.Addrs[1], garbage); err != nil {
		t.Fatal(err)
	}
	// Out-of-band injections are invisible to the termination detector, so
	// wait for the relay to consume the datagram before settling.
	deadline := time.Now().Add(10 * time.Second)
	for res.Cluster.Nodes[1].Metrics.MsgsProcessed() < processed+1 {
		if time.Now().After(deadline) {
			t.Fatal("relay never consumed the injected datagram")
		}
		time.Sleep(time.Millisecond)
	}
	res.Cluster.WaitFixpoint()

	if got := len(res.Cluster.Query(0, "result")); got != before {
		t.Errorf("tampering changed results: %d -> %d", before, got)
	}
}
