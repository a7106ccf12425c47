package apps

import (
	"fmt"
	"time"

	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/seccrypto"
	"secureblox/internal/transport"
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

// AnonJoinConfig parameterizes the anonymous join: node 0 is the
// initiator, nodes 1..Relays are circuit relays, node Relays+1 owns
// publicdata.
type AnonJoinConfig struct {
	Relays     int
	Interests  int // local table size
	PublicRows int // remote table size
	Overlap    int // how many interests have matches
	Seed       int64
	// Transport selects the cluster substrate ("", "mem" or "udp"); see
	// core.NewNetwork.
	Transport string
}

// AnonJoinResult carries one run's outcome.
type AnonJoinResult struct {
	Results  int
	Expected int
	Duration time.Duration
	Cluster  *core.Cluster
}

const circuitHandle = "c1"

// newAnonJoin builds the cluster over net and instantiates the circuit,
// returning it unstarted with the two inputs: the publicdata table its last
// node (the owner) is to assert and the interests its first (the initiator).
func newAnonJoin(cfg AnonJoinConfig, p core.PolicyConfig, net transport.Network) (c *core.Cluster, pub, ints []engine.Fact, err error) {
	switch {
	case cfg.Relays < 1:
		err = fmt.Errorf("anonjoin: need at least one relay")
	case cfg.Overlap > cfg.Interests || cfg.Overlap > cfg.PublicRows:
		// Each overlapping interest is one row of each table.
		err = fmt.Errorf("anonjoin: overlap %d exceeds the tables (%d interests, %d public rows)", cfg.Overlap, cfg.Interests, cfg.PublicRows)
	}
	if err != nil {
		net.Close()
		return nil, nil, nil, err
	}
	n := cfg.Relays + 2
	endpoint := n - 1
	c, err = core.NewCluster(anonJoinProgram.ClusterConfig(n, p, cfg.Seed, net))
	if err != nil {
		return nil, nil, nil, err
	}
	// On a setup failure below, release the cluster (sockets, goroutines)
	// — the caller only gets the error.
	ok := false
	defer func() {
		if !ok {
			c.Stop()
		}
	}()

	// Circuit instantiation (out of band, as in the paper): one layer key
	// per hop 1..endpoint, link-local ids per link.
	rng := seccrypto.NewDeterministicRand(cfg.Seed + 100)
	keys := make([][]byte, 0, n-1)
	for i := 1; i < n; i++ {
		k, err := seccrypto.GenerateSecret(rng)
		if err != nil {
			return nil, nil, nil, err
		}
		keys = append(keys, k)
		c.KeyStores[i].SetCircuitKey(circuitHandle, k)
	}
	c.KeyStores[0].SetOnionKeys(circuitHandle, keys)

	linkID := func(i int) int64 { return int64(1000 + i) } // link i→i+1
	cv := datalog.String_(circuitHandle)
	fact := func(pred string, vals ...datalog.Value) engine.Fact {
		return engine.Fact{Pred: pred, Tuple: datalog.Tuple(vals)}
	}
	// Initiator state.
	initFacts := []engine.Fact{
		fact("anon_path", datalog.Prin(core.PrincipalName(endpoint)), cv),
		fact("anon_path_forward_id", cv, datalog.Int64(linkID(0))),
		fact("anon_path_nexthop", cv, datalog.NodeV(c.Addrs[1])),
		fact("anon_path_origin", cv, datalog.Bool(true)),
		fact("table_owner", datalog.Prin(core.PrincipalName(endpoint))),
	}
	if _, err := c.Nodes[0].WS.Assert(initFacts); err != nil {
		return nil, nil, nil, fmt.Errorf("anonjoin: initiator setup: %w", err)
	}
	// Relay state.
	for i := 1; i <= cfg.Relays; i++ {
		facts := []engine.Fact{
			fact("anon_path_backward_id", cv, datalog.Int64(linkID(i-1))),
			fact("anon_path_forward_id", cv, datalog.Int64(linkID(i))),
			fact("anon_path_nexthop", cv, datalog.NodeV(c.Addrs[i+1])),
			fact("anon_path_prevhop", cv, datalog.NodeV(c.Addrs[i-1])),
		}
		if _, err := c.Nodes[i].WS.Assert(facts); err != nil {
			return nil, nil, nil, fmt.Errorf("anonjoin: relay %d setup: %w", i, err)
		}
	}
	// Endpoint state.
	endFacts := []engine.Fact{
		fact("anon_path_backward_id", cv, datalog.Int64(linkID(endpoint-1))),
		fact("anon_path_endpoint", cv, datalog.Bool(true)),
		fact("anon_path_prevhop", cv, datalog.NodeV(c.Addrs[endpoint-1])),
	}
	if _, err := c.Nodes[endpoint].WS.Assert(endFacts); err != nil {
		return nil, nil, nil, fmt.Errorf("anonjoin: endpoint setup: %w", err)
	}

	// publicdata: X values 0..PublicRows-1, unique.
	for x := 0; x < cfg.PublicRows; x++ {
		pub = append(pub, fact("publicdata", datalog.Int64(int64(x)), datalog.Int64(int64(10000+x))))
	}
	// Interests: Overlap values inside the table, the rest outside.
	for i := 0; i < cfg.Interests; i++ {
		x := int64(i)
		if i >= cfg.Overlap {
			x = int64(cfg.PublicRows + i) // no match
		}
		ints = append(ints, fact("interests", datalog.Int64(x)))
	}
	ok = true
	return c, pub, ints, nil
}

// RunAnonJoin builds the circuit, runs the anonymous join to fixpoint, and
// reports results. The caller must Stop() the result's Cluster.
func RunAnonJoin(cfg AnonJoinConfig) (*AnonJoinResult, error) {
	return runAnonJoin(cfg, core.PolicyConfig{})
}

// runAnonJoin is RunAnonJoin with the scheme the rest of the program is
// compiled under; the circuit's own traffic is unsigned under all of them.
func runAnonJoin(cfg AnonJoinConfig, p core.PolicyConfig) (*AnonJoinResult, error) {
	net, err := core.NewNetwork(cfg.Transport)
	if err != nil {
		return nil, err
	}
	c, pub, ints, err := newAnonJoin(cfg, p, net)
	if err != nil {
		return nil, err
	}
	c.Start()
	c.AssertAt(len(c.Nodes)-1, pub)
	c.AssertAt(0, ints)

	dur := c.WaitFixpoint()
	return &AnonJoinResult{
		Results:  len(c.Query(0, "result")),
		Expected: cfg.Overlap,
		Duration: dur,
		Cluster:  c,
	}, nil
}
