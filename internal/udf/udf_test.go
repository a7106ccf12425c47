package udf

import (
	"errors"
	"testing"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/obs"
	"secureblox/internal/seccrypto"
	"secureblox/internal/wire"
)

func newWS(t *testing.T, self string, src string) (*engine.Workspace, *seccrypto.KeyStore) {
	t.Helper()
	ts, err := seccrypto.NewTrustSetup([]string{"alice", "bob"}, seccrypto.NewDeterministicRand(11))
	if err != nil {
		t.Fatal(err)
	}
	ks := ts.Stores[self]
	reg, err := NewRegistry(ks, seccrypto.NewDeterministicRand(12))
	if err != nil {
		t.Fatal(err)
	}
	w := engine.NewWorkspace(reg)
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	return w, ks
}

func TestSha1UDFDeterministicAndRanged(t *testing.T) {
	w, _ := newWS(t, "alice", `
		h(X, H) <- in(X), sha1(X, H).
	`)
	if _, err := w.AssertProgramFacts(`in("k1"). in("k2").`); err != nil {
		t.Fatal(err)
	}
	tuples := w.Tuples("h")
	if len(tuples) != 2 {
		t.Fatalf("want 2 hashes, got %v", tuples)
	}
	for _, tp := range tuples {
		if tp[1].Kind != datalog.KindInt || tp[1].Int < 0 {
			t.Errorf("hash should be a non-negative int, got %s", tp[1])
		}
	}
	// determinism: re-assert produces no new tuples
	res, err := w.AssertProgramFacts(`in("k1").`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Inserted("h")) != 0 {
		t.Error("sha1 must be deterministic")
	}
}

func TestSignSerializeDeserializeVerifyPipeline(t *testing.T) {
	// The full paper §5.1 dataflow inside one workspace: sign, serialize,
	// then deserialize and verify via constraint.
	w, ks := newWS(t, "alice", `
		sig(V1, V2, S) <- outgoing(V1, V2), private_key[]=K, rsa_sign['msg](K, V1, V2, S).
		packed(T) <- outgoing(V1, V2), sig(V1, V2, S), serialize['msg](S, T, V1, V2).
		unpacked(V1, V2, S) <- packed(T), deserialize['msg](S, T, V1, V2).
		unpacked(V1, V2, S) -> public_key(P, K), rsa_verify['msg](K, V1, V2, S).
	`)
	if _, err := w.Assert([]engine.Fact{
		{Pred: "private_key", Tuple: datalog.Tuple{datalog.BytesV(ks.PrivateKeyDER())}},
		{Pred: "public_key", Tuple: datalog.Tuple{datalog.Prin("alice"), datalog.BytesV(ks.PublicKeyDER("alice"))}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AssertProgramFacts(`outgoing(1, 2).`); err != nil {
		t.Fatal(err)
	}
	if w.Count("unpacked") != 1 {
		t.Fatalf("pipeline did not complete: packed=%d unpacked=%d", w.Count("packed"), w.Count("unpacked"))
	}
	up := w.Tuples("unpacked")[0]
	if up[0].Int != 1 || up[1].Int != 2 || len(up[2].Bytes()) != 128 {
		t.Errorf("unpacked wrong: %s", up)
	}
}

func TestBadSignatureRejectedByConstraint(t *testing.T) {
	w, ks := newWS(t, "alice", `
		incoming(V1, V2, S) <- arrived(T), deserialize['msg](S, T, V1, V2).
		incoming(V1, V2, S) -> public_key(P, K), rsa_verify['msg](K, V1, V2, S).
	`)
	if _, err := w.Assert([]engine.Fact{
		{Pred: "public_key", Tuple: datalog.Tuple{datalog.Prin("alice"), datalog.BytesV(ks.PublicKeyDER("alice"))}},
	}); err != nil {
		t.Fatal(err)
	}
	// forge a payload with a garbage signature
	forged := forgePayload(t, "msg", []byte("not a real signature"))
	_, err := w.Assert([]engine.Fact{{Pred: "arrived", Tuple: datalog.Tuple{datalog.BytesV(forged)}}})
	var cv *engine.ConstraintViolation
	if !errors.As(err, &cv) {
		t.Fatalf("forged signature must violate, got %v", err)
	}
	if w.Count("arrived") != 0 || w.Count("incoming") != 0 {
		t.Error("rejected batch must be fully rolled back")
	}
}

func forgePayload(t *testing.T, pred string, sig []byte) []byte {
	t.Helper()
	// reuse the serialize UDF through a scratch workspace
	w, _ := newWS(t, "bob", `
		out(T) <- seed(S), serialize['`+pred+`](S, T, 1, 2).
	`)
	if _, err := w.Assert([]engine.Fact{{Pred: "seed", Tuple: datalog.Tuple{datalog.BytesV(sig)}}}); err != nil {
		t.Fatal(err)
	}
	return w.Tuples("out")[0][0].Bytes()
}

func TestBatchSignVerifyUDFs(t *testing.T) {
	// rsa_verify_batch operates on a precomputed digest: it accepts what
	// the node runtime's batch signer produces over an envelope's group root
	// (footnote 2) — a plain RSASign of the root, no UDF on the signing side.
	w, ks := newWS(t, "alice", `
		signed(D, S) -> bytes(D), bytes(S).
		signed(D, S) -> public_key(P, K), rsa_verify_batch(K, D, S).
	`)
	if _, err := w.Assert([]engine.Fact{
		{Pred: "public_key", Tuple: datalog.Tuple{datalog.Prin("alice"), datalog.BytesV(ks.PublicKeyDER("alice"))}},
	}); err != nil {
		t.Fatal(err)
	}
	root := wire.Message{Payloads: [][]byte{[]byte("payload one"), []byte("payload two")}}.BatchRoot()
	sig, err := seccrypto.RSASign(ks.PrivateKey(), root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Assert([]engine.Fact{{Pred: "signed", Tuple: datalog.Tuple{datalog.BytesV(root), datalog.BytesV(sig)}}}); err != nil {
		t.Fatalf("a runtime-signed group root must verify: %v", err)
	}
	if w.Count("signed") != 1 {
		t.Fatal("verified batch signature was not committed")
	}
}

func TestBadBatchSignatureRejectedByConstraint(t *testing.T) {
	w, ks := newWS(t, "alice", `
		claimed(D, S) -> bytes(D), bytes(S).
		claimed(D, S) -> public_key(P, K), rsa_verify_batch(K, D, S).
	`)
	if _, err := w.Assert([]engine.Fact{
		{Pred: "public_key", Tuple: datalog.Tuple{datalog.Prin("alice"), datalog.BytesV(ks.PublicKeyDER("alice"))}},
	}); err != nil {
		t.Fatal(err)
	}
	d := wire.BatchDigest([][]byte{[]byte("payload")})
	_, err := w.Assert([]engine.Fact{{Pred: "claimed", Tuple: datalog.Tuple{
		datalog.BytesV(d), datalog.BytesV([]byte("forged batch signature")),
	}}})
	var cv *engine.ConstraintViolation
	if !errors.As(err, &cv) {
		t.Fatalf("forged batch signature must violate, got %v", err)
	}
	if w.Count("claimed") != 0 {
		t.Error("rejected claim must be rolled back")
	}
}

func TestPooledSigningMemoizesRederivations(t *testing.T) {
	// With a SignPool installed, re-deriving the same signature (same key,
	// same data) is a cache hit: no second private-key operation.
	ts, err := seccrypto.NewTrustSetup([]string{"alice", "bob"}, seccrypto.NewDeterministicRand(21))
	if err != nil {
		t.Fatal(err)
	}
	ks := ts.Stores["alice"]
	spool := seccrypto.NewSignPool()
	family := obs.Default().CounterValue
	hits0, misses0 := family("sbx_signpool_hits_total"), family("sbx_signpool_misses_total")
	reg, err := NewRegistryWithPools(ks, seccrypto.NewDeterministicRand(22), nil, spool)
	if err != nil {
		t.Fatal(err)
	}
	w := engine.NewWorkspace(reg)
	prog, err := datalog.Parse(`
		trigger(X) -> int(X).
		sig(V, S) <- trigger(X), payload(V), private_key[]=K, rsa_sign['m](K, V, S).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Assert([]engine.Fact{
		{Pred: "private_key", Tuple: datalog.Tuple{datalog.BytesV(ks.PrivateKeyDER())}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AssertProgramFacts(`payload(7). trigger(1).`); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := family("sbx_signpool_misses_total") - misses0
	if missesAfterFirst == 0 {
		t.Fatal("first derivation should sign through the pool")
	}
	// A second trigger re-fires the rule over the same payload: the
	// signature must come from the cache.
	if _, err := w.AssertProgramFacts(`trigger(2).`); err != nil {
		t.Fatal(err)
	}
	hits, misses := family("sbx_signpool_hits_total")-hits0, family("sbx_signpool_misses_total")-misses0
	if misses != missesAfterFirst {
		t.Errorf("re-derivation recomputed the signature: misses %d -> %d", missesAfterFirst, misses)
	}
	if hits == 0 {
		t.Error("re-derivation did not hit the sign cache")
	}
}

func TestHMACSignVerifyUDFs(t *testing.T) {
	w, ks := newWS(t, "alice", `
		tagged(X, S) <- msg(X), my_secret[]=K, hmac_sign['m](K, X, S).
		checked(X) <- tagged(X, S), my_secret[]=K, hmac_verify['m](K, X, S).
	`)
	secret := ks.Secret("bob")
	if _, err := w.Assert([]engine.Fact{{Pred: "my_secret", Tuple: datalog.Tuple{datalog.BytesV(secret)}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AssertProgramFacts(`msg(42).`); err != nil {
		t.Fatal(err)
	}
	if w.Count("checked") != 1 {
		t.Error("hmac round trip failed")
	}
	tag := w.Tuples("tagged")[0][1]
	if len(tag.Bytes()) != 20 {
		t.Errorf("HMAC-SHA1 tag should be 20 bytes, got %d", len(tag.Bytes()))
	}
}

func TestAESEncryptDecryptUDFs(t *testing.T) {
	w, ks := newWS(t, "alice", `
		ct(C) <- pt(P), k[]=K, aesencrypt(P, K, C).
		rt(P) <- ct(C), k[]=K, aesdecrypt(C, K, P).
	`)
	if _, err := w.Assert([]engine.Fact{
		{Pred: "k", Tuple: datalog.Tuple{datalog.BytesV(ks.Secret("bob"))}},
		{Pred: "pt", Tuple: datalog.Tuple{datalog.BytesV([]byte("secret tuple"))}},
	}); err != nil {
		t.Fatal(err)
	}
	rt := w.Tuples("rt")
	if len(rt) != 1 || string(rt[0][0].Bytes()) != "secret tuple" {
		t.Errorf("AES UDF round trip failed: %v", rt)
	}
	ct := w.Tuples("ct")[0][0].Bytes()
	if string(ct) == "secret tuple" {
		t.Error("ciphertext equals plaintext")
	}
}

func TestNoAuthUDFs(t *testing.T) {
	w, _ := newWS(t, "alice", `
		s(X, S) <- m(X), noauth_sign['p](X, S).
	`)
	if _, err := w.AssertProgramFacts(`m(1).`); err != nil {
		t.Fatal(err)
	}
	if w.Count("s") != 1 {
		t.Fatal("noauth_sign should always sign")
	}
	if len(w.Tuples("s")[0][1].Bytes()) != 0 {
		t.Error("noauth signature should be empty (zero bandwidth overhead)")
	}
}

func TestOnionUDFs(t *testing.T) {
	ts, _ := seccrypto.NewTrustSetup([]string{"init", "relay", "exit"}, seccrypto.NewDeterministicRand(21))
	rng := seccrypto.NewDeterministicRand(22)
	k1, _ := seccrypto.GenerateSecret(rng)
	k2, _ := seccrypto.GenerateSecret(rng)
	ts.Stores["init"].SetOnionKeys("c1", [][]byte{k1, k2})
	ts.Stores["relay"].SetCircuitKey("c1", k1)
	ts.Stores["exit"].SetCircuitKey("c1", k2)

	mk := func(self, src string) *engine.Workspace {
		reg, _ := NewRegistry(ts.Stores[self], seccrypto.NewDeterministicRand(23))
		w := engine.NewWorkspace(reg)
		prog, err := datalog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Install(prog); err != nil {
			t.Fatal(err)
		}
		return w
	}
	wi := mk("init", `onion(CT) <- msg(M), anon_encrypt("c1", M, CT).`)
	if _, err := wi.Assert([]engine.Fact{{Pred: "msg", Tuple: datalog.Tuple{datalog.BytesV([]byte("q"))}}}); err != nil {
		t.Fatal(err)
	}
	ct := wi.Tuples("onion")[0][0]

	wr := mk("relay", `peeled(P) <- in(C), anon_decrypt("c1", C, P).`)
	if _, err := wr.Assert([]engine.Fact{{Pred: "in", Tuple: datalog.Tuple{ct}}}); err != nil {
		t.Fatal(err)
	}
	mid := wr.Tuples("peeled")[0][0]
	if string(mid.Bytes()) == "q" {
		t.Fatal("relay should not see plaintext")
	}

	we := mk("exit", `peeled(P) <- in(C), anon_decrypt("c1", C, P).`)
	if _, err := we.Assert([]engine.Fact{{Pred: "in", Tuple: datalog.Tuple{mid}}}); err != nil {
		t.Fatal(err)
	}
	if got := we.Tuples("peeled")[0][0]; string(got.Bytes()) != "q" {
		t.Errorf("exit should recover plaintext, got %q", got.Bytes())
	}
}

func TestAnonSerializeHasNoSignature(t *testing.T) {
	w, _ := newWS(t, "alice", `
		out(T) <- q(X), anon_serialize['req](T, X).
		back(X) <- out(T), anon_deserialize['req](T, X).
	`)
	if _, err := w.AssertProgramFacts(`q(5).`); err != nil {
		t.Fatal(err)
	}
	if w.Count("back") != 1 || w.Tuples("back")[0][0].Int != 5 {
		t.Errorf("anon serialize round trip failed: %v", w.Tuples("back"))
	}
}

func TestDeserializeWrongPredicateNoMatch(t *testing.T) {
	w, _ := newWS(t, "alice", `
		out(T) <- seed(S), serialize['alpha](S, T, 1).
		got(X) <- out(T), deserialize['beta](S, T, X).
	`)
	if _, err := w.Assert([]engine.Fact{{Pred: "seed", Tuple: datalog.Tuple{datalog.BytesV(nil)}}}); err != nil {
		t.Fatal(err)
	}
	if w.Count("got") != 0 {
		t.Error("deserialize must only match its own predicate")
	}
}

// TestUDFsNeverWriteIntoTheirInputs: Value.Bytes is a zero-copy view of
// storage that relations hash and share, so a UDF that wrote into an argument
// would corrupt stored tuples. Every family — with and without the RSA worker
// pools — must leave its byte arguments byte-identical, and must not hand out
// a result that a later call of another UDF overwrites (serialize's own next
// call may: the workspace has interned its result by then).
func TestUDFsNeverWriteIntoTheirInputs(t *testing.T) {
	ts, err := seccrypto.NewTrustSetup([]string{"alice", "bob"}, seccrypto.NewDeterministicRand(31))
	if err != nil {
		t.Fatal(err)
	}
	ks := ts.Stores["alice"]
	rng := seccrypto.NewDeterministicRand(32)
	k1, _ := seccrypto.GenerateSecret(rng)
	k2, _ := seccrypto.GenerateSecret(rng)
	ks.SetOnionKeys("c1", [][]byte{k1, k2})
	ks.SetCircuitKey("c1", k1)

	vpool, spool := seccrypto.NewVerifyPool(), seccrypto.NewSignPool()
	plain, err := NewRegistry(ks, seccrypto.NewDeterministicRand(33))
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := NewRegistryWithPools(ks, seccrypto.NewDeterministicRand(33), vpool, spool)
	if err != nil {
		t.Fatal(err)
	}

	own := func(b []byte) datalog.Value { return datalog.OwnedBytes(append([]byte(nil), b...)) }
	priv, pub := own(ks.PrivateKeyDER()), own(ks.PublicKeyDER("alice"))
	secret := own(ks.Secret("bob"))
	msg, circ := own([]byte("sixteen byte msg and then some")), datalog.String_("c1")
	digest := own(wire.BatchDigest([][]byte{[]byte("p1"), []byte("p2")}))
	rawBatchSig, err := seccrypto.RSASign(ks.PrivateKey(), digest.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	bsig := own(rawBatchSig)
	var none datalog.Value // an unbound output position

	// call evaluates one UDF and returns its completion: args, filled in.
	call := func(reg *engine.UDFRegistry, name, param string, args ...datalog.Value) []datalog.Value {
		t.Helper()
		u, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("no UDF %s", name)
		}
		bound := make([]bool, len(args))
		for i, a := range args {
			bound[i] = !a.IsZero()
		}
		before := make([]string, len(args))
		for i, a := range args {
			before[i] = string(a.Bytes()) // a copy
		}
		ok, err := u.Eval(param, args, bound)
		if err != nil || !ok {
			t.Fatalf("%s: completion %v, err %v", name, ok, err)
		}
		for i, a := range args {
			if bound[i] && string(a.Bytes()) != before[i] {
				t.Errorf("%s wrote into argument %d", name, i)
			}
		}
		return args
	}

	for _, reg := range []*engine.UDFRegistry{plain, pooled} {
		one, two := datalog.Int64(1), datalog.String_("two")
		sig := call(reg, "rsa_sign", "p", priv, one, two, none)[3]
		sigBytes := string(sig.Bytes())
		call(reg, "rsa_verify", "p", pub, one, two, sig)
		call(reg, "rsa_verify_batch", "", pub, digest, bsig)
		tag := call(reg, "hmac_sign", "p", secret, one, two, none)[3]
		call(reg, "hmac_verify", "p", secret, one, two, tag)
		ct := call(reg, "aesencrypt", "", msg, secret, none)[2]
		if pt := call(reg, "aesdecrypt", "", ct, secret, none)[2]; !pt.Equal(msg) {
			t.Errorf("aes round trip: %s", pt)
		}
		onion := call(reg, "anon_encrypt", "", circ, msg, none)[2]
		peeled := call(reg, "anon_decrypt", "", circ, onion, none)[2]
		back := call(reg, "anon_encrypt_back", "", circ, msg, none)[2]
		call(reg, "anon_decrypt_back", "", circ, call(reg, "anon_encrypt_back", "", circ, back, none)[2], none)
		packed := call(reg, "serialize", "p", sig, none, one, two, peeled)[1]
		if un := call(reg, "deserialize", "p", none, packed, none, none, none); !un[0].Equal(sig) || !un[4].Equal(peeled) {
			t.Errorf("serialize round trip: %v", un)
		}
		apacked := call(reg, "anon_serialize", "q", none, one, onion)[0]
		call(reg, "anon_deserialize", "q", apacked, none, none)
		call(reg, "sha1", "", packed, none)
		// A second signature (a memo hit under the pools) must not have been
		// written over the first one's storage.
		call(reg, "rsa_sign", "p", priv, two, one, none)
		if string(sig.Bytes()) != sigBytes {
			t.Error("an earlier rsa_sign result changed under a later call")
		}
	}
}

// TestPayloadUDFsAllocateOnlyWhatTheyReturn: serialize allocates nothing — it
// encodes into a buffer it reuses, the workspace interning each payload before
// the next call; deserialize turns a payload of another
// predicate away without allocating at all, and for its own allocates the
// string values it hands back (one here; integers ride in the Value, and the
// signature is a view of the payload) — no copy of the argument vector, no
// decoded tuple, no result slice.
func TestPayloadUDFsAllocateOnlyWhatTheyReturn(t *testing.T) {
	reg, err := NewRegistry(seccrypto.NewKeyStore("alice"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ser, _ := reg.Lookup("serialize")
	de, _ := reg.Lookup("deserialize")
	var none datalog.Value
	sig, hop, cost := datalog.BytesV([]byte("sixteen byte sig")), datalog.NodeV("10.0.0.2:7000"), datalog.Int64(3)

	args, bound := []datalog.Value{sig, none, hop, cost}, []bool{true, false, true, true}
	if allocs := testing.AllocsPerRun(50, func() {
		if ok, err := ser.Eval("path", args, bound); !ok || err != nil {
			t.Fatalf("serialize: %v, %v", ok, err)
		}
	}); allocs != 0 {
		t.Errorf("serialize: %.1f allocations, want 0 (the payload reuses the UDF's buffer)", allocs)
	}
	pkt := datalog.BytesV(args[1].Bytes()) // a copy: the next call overwrites it

	out, free := []datalog.Value{none, pkt, none, none}, []bool{false, true, false, false}
	if allocs := testing.AllocsPerRun(50, func() {
		if ok, err := de.Eval("path", out, free); !ok || err != nil {
			t.Fatalf("deserialize: %v, %v", ok, err)
		}
	}); allocs != 1 {
		t.Errorf("deserialize of its own predicate: %.1f allocations, want 1 (the node address; the signature views the payload)", allocs)
	}
	if !out[0].Equal(sig) || !out[2].Equal(hop) || !out[3].Equal(cost) {
		t.Errorf("round trip: %v", out)
	}
	for _, other := range []string{"pat", "pathx", "bestcost"} {
		if allocs := testing.AllocsPerRun(50, func() {
			if ok, err := de.Eval(other, out, free); ok || err != nil {
				t.Fatalf("deserialize[%s] of a path payload: %v, %v", other, ok, err)
			}
		}); allocs != 0 {
			t.Errorf("deserialize[%s] of a path payload: %.1f allocations, want 0", other, allocs)
		}
	}
	// A bound value position filters: the right hop passes, another does not.
	filt := []bool{false, true, true, false}
	out[2] = hop
	if ok, _ := de.Eval("path", out, filt); !ok {
		t.Error("deserialize with the payload's own hop bound must match")
	}
	out[2] = datalog.NodeV("10.0.0.3:7000")
	if ok, _ := de.Eval("path", out, filt); ok || out[2].Str != "10.0.0.3:7000" {
		t.Error("deserialize with another hop bound must not match, nor touch the bound position")
	}
}
