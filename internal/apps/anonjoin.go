package apps

import (
	"fmt"

	"secureblox/internal/cluster"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/seccrypto"
)

// AnonPolicy is the anonymity construct of §6.2: anon_says sends a fact
// over a pre-instantiated onion circuit without a signature (anonymity
// precludes authorship proof); intermediate relays peel one encryption
// layer forward and add one backward; the endpoint addresses replies to the
// circuit, never learning the initiator. anon_export tuples ride the
// regular export transport wrapped under the 'anonwrap payload predicate.
const AnonPolicy = `
	// Circuit state relations (populated out of band by path
	// instantiation, which the paper also elides).
	anon_export(N, Id, CT) -> node(N), int(Id), bytes(CT).
	anon_path[U]=C -> principal(U), string(C).
	anon_path_forward_id[C]=Id -> string(C), int(Id).
	anon_path_backward_id[C]=Id -> string(C), int(Id).
	anon_path_nexthop[C]=N -> string(C), node(N).
	anon_path_prevhop[C]=N -> string(C), node(N).
	anon_path_endpoint[C]=B -> string(C), bool(B).
	anon_path_origin[C]=B -> string(C), bool(B).

	// Transport bridge: anon_export tuples ride the runtime's export
	// relation, wrapped (unsigned) under the 'anonwrap payload predicate.
	export(N, L, Pkt) <-
		anon_export(N, Id, CT), principal_node[self[]]=L, N != L,
		noauth_sign['anonwrap](Id, CT, S),
		serialize['anonwrap](S, Pkt, Id, CT).
	anon_export(N, Id, CT) <-
		export(N, L, Pkt), principal_node[self[]]=N,
		deserialize['anonwrap](S, Pkt, Id, CT).

	// Relay, forward direction: peel one layer, pass along the circuit.
	anon_export(N2, Id2, CT2) <-
		anon_export(N1, Id1, CT1), principal_node[self[]]=N1,
		anon_path_backward_id[C]=Id1,
		anon_path_forward_id[C]=Id2,
		anon_path_nexthop[C]=N2,
		!anon_path_endpoint(C, _),
		anon_decrypt(C, CT1, CT2).

	// Relay, backward direction: add one layer toward the initiator.
	anon_export(N2, Id2, CT2) <-
		anon_export(N1, Id1, CT1), principal_node[self[]]=N1,
		anon_path_forward_id[C]=Id1,
		anon_path_backward_id[C]=Id2,
		anon_path_prevhop[C]=N2,
		!anon_path_origin(C, _),
		anon_encrypt_back(C, CT1, CT2).

	anon_says[P]=AS, predicate(AS),
	` + "`" + `{
		// Initiator: serialize without a signature, onion-encrypt, send to
		// the first hop.
		anon_export(N, Id, CT) <-
			anon_says[P](self[], U, V*),
			anon_serialize[P](Pkt, V*),
			anon_path[U]=C,
			anon_path_forward_id[C]=Id,
			anon_path_nexthop[C]=N,
			anon_encrypt(C, Pkt, CT).

		// Endpoint: peel the last layer; the sender is known only as the
		// circuit C.
		anon_says_id_in[P](C, V*) <-
			anon_export(N1, Id1, CT1), principal_node[self[]]=N1,
			anon_path_backward_id[C]=Id1,
			anon_path_endpoint[C]=true,
			anon_decrypt(C, CT1, Pkt),
			anon_deserialize[P](Pkt, V*).

		// Endpoint reply: address the circuit, add the first backward
		// layer.
		anon_export(N, Id, CT) <-
			anon_says_id_out[P](C, V*),
			anon_path_endpoint[C]=true,
			anon_path_backward_id[C]=Id,
			anon_path_prevhop[C]=N,
			anon_serialize[P](Pkt, V*),
			anon_encrypt_back(C, Pkt, CT).

		// Initiator: peel all backward layers.
		anon_reply_in[P](C, V*) <-
			anon_export(N1, Id1, CT1), principal_node[self[]]=N1,
			anon_path_origin[C]=true,
			anon_path_forward_id[C]=Id1,
			anon_decrypt_back(C, CT1, Pkt),
			anon_deserialize[P](Pkt, V*).
	}
	<-- predicate(P), anon_exportable(P).
`

// AnonJoinQuery is §7.3: an anonymous user joins a small local interests
// table against a large remote publicdata table by anonymously saying
// hashed join keys to the table owner and receiving matches back along the
// circuit.
const AnonJoinQuery = `
	interests(X) -> int(X).
	publicdata(X, Y) -> int(X), int(Y).
	result(Hx, Y) -> int(Hx), int(Y).
	req_publicdata(Hx) -> int(Hx).
	publicdata_reply(Hx, Y) -> int(Hx), int(Y).
	anon_exportable('req_publicdata).
	anon_exportable('publicdata_reply).

	// Initiator: hash each interest, anonymously ask the table owner.
	anon_says['req_publicdata](self[], U, Hx) <-
		interests(X), table_owner[]=U, sha1(X, Hx).

	// Owner: relay matching tuples back along the circuit they arrived on.
	anon_says_id_out['publicdata_reply](C, Hx, Y) <-
		publicdata(X, Y),
		anon_says_id_in['req_publicdata](C, Hx),
		sha1(X, Hx).

	// Initiator: collect results.
	result(Hx, Y) <- anon_reply_in['publicdata_reply](C, Hx, Y).
`

// The anonymous join's input: node 0 is the initiator, with anonInterests
// interests, of which the first anonOverlap match one of the
// anonPublicRows rows of publicdata at the last node, the table owner; the
// nodes between are the circuit's relays.
const (
	anonInterests  = 10
	anonPublicRows = 100
	anonOverlap    = 6
	circuitHandle  = "c1"
)

// anonJoinKeys instantiates node idx's end of the circuit out of band, as in
// the paper: one layer key per hop 1..n-1, drawn from the seed, so that every
// process derives the same keys. The initiator holds them all.
func anonJoinKeys(w cluster.WorkloadConfig, mem *cluster.Membership, idx int, ks *seccrypto.KeyStore) error {
	rng := seccrypto.NewDeterministicRand(w.Seed + 100)
	keys := make([][]byte, len(mem.Members)-1)
	for i := range keys {
		k, err := seccrypto.GenerateSecret(rng)
		if err != nil {
			return fmt.Errorf("anonjoin: layer key of hop %d: %w", i+1, err)
		}
		keys[i] = k
	}
	if idx == 0 {
		ks.SetOnionKeys(circuitHandle, keys)
	} else {
		ks.SetCircuitKey(circuitHandle, keys[idx-1])
	}
	return nil
}

// anonJoinFacts is node idx's circuit state, with link-local ids per link,
// and its table: the initiator's interests or the owner's publicdata.
func anonJoinFacts(_ cluster.WorkloadConfig, mem *cluster.Membership, idx int) []engine.Fact {
	addrs, endpoint := mem.Addrs(), len(mem.Members)-1
	linkID := func(i int) datalog.Value { return datalog.Int64(int64(1000 + i)) } // link i→i+1
	cv := datalog.String_(circuitHandle)
	fact := func(pred string, vals ...datalog.Value) engine.Fact {
		return engine.Fact{Pred: pred, Tuple: datalog.Tuple(vals)}
	}
	var facts []engine.Fact
	switch idx {
	case 0:
		owner := datalog.Prin(mem.Members[endpoint].Principal)
		facts = []engine.Fact{
			fact("anon_path", owner, cv),
			fact("anon_path_forward_id", cv, linkID(0)),
			fact("anon_path_nexthop", cv, datalog.NodeV(addrs[1])),
			fact("anon_path_origin", cv, datalog.Bool(true)),
			fact("table_owner", owner),
		}
		// Interests: anonOverlap values inside the owner's table, the rest
		// outside.
		for i := range anonInterests {
			x := int64(i)
			if i >= anonOverlap {
				x = int64(anonPublicRows + i)
			}
			facts = append(facts, fact("interests", datalog.Int64(x)))
		}
	case endpoint:
		facts = []engine.Fact{
			fact("anon_path_backward_id", cv, linkID(endpoint-1)),
			fact("anon_path_endpoint", cv, datalog.Bool(true)),
			fact("anon_path_prevhop", cv, datalog.NodeV(addrs[endpoint-1])),
		}
		for x := range int64(anonPublicRows) {
			facts = append(facts, fact("publicdata", datalog.Int64(x), datalog.Int64(10000+x)))
		}
	default:
		facts = []engine.Fact{
			fact("anon_path_backward_id", cv, linkID(idx-1)),
			fact("anon_path_forward_id", cv, linkID(idx)),
			fact("anon_path_nexthop", cv, datalog.NodeV(addrs[idx+1])),
			fact("anon_path_prevhop", cv, datalog.NodeV(addrs[idx-1])),
		}
	}
	return facts
}
