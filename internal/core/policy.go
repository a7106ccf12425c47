// Package core is SecureBlox itself: the customizable security policy
// framework (says, authorization, signatures, encryption, delegation —
// paper §3 and §6) expressed as BloxGenerics policies, plus the distributed
// cluster driver that compiles a user query together with a policy
// configuration and runs it across nodes.
//
// PolicyConfig is the one policy value, from the figure label a user names
// (ParsePolicyName, whose inverse is Name) to each node: it selects the
// policy sources CompileProgram compiles, the key material a deployment
// config must declare (DeploymentPolicy) and the key material
// NodeAssembly.Build asserts as the node's set-up facts. No other package
// parses a label or checks key material against one.
package core

import (
	"fmt"
	"strings"
)

// AuthScheme selects the authentication mechanism for says, matching the
// paper's evaluation axes (§8).
type AuthScheme int

// Authentication schemes.
const (
	AuthNone AuthScheme = iota // cleartext principal header only
	AuthHMAC                   // HMAC-SHA1 over pairwise shared secrets
	AuthRSA                    // RSA-1024 signatures over SHA-1 digests
)

// String returns the paper's label for the scheme.
func (a AuthScheme) String() string {
	switch a {
	case AuthHMAC:
		return "HMAC"
	case AuthRSA:
		return "RSA"
	default:
		return "NoAuth"
	}
}

// Delegation selects the trust policy applied when importing said facts
// (paper §6.1).
type Delegation int

// Delegation modes.
const (
	// DelegateAll imports every said fact (the paper's "benign world").
	DelegateAll Delegation = iota
	// DelegateTrustworthy imports only from principals in trustworthy(P).
	DelegateTrustworthy
	// DelegatePerPred imports per-predicate from trustworthyPerPred[T](P).
	DelegatePerPred
	// DelegateNone installs no import rule; the application consumes says
	// tuples itself.
	DelegateNone
)

// PolicyConfig is a complete security configuration. The zero value is the
// paper's NoAuth baseline with trust-all import.
type PolicyConfig struct {
	Auth          AuthScheme
	BatchSign     bool // RSA only: one signature per export batch (footnote 2)
	Encrypt       bool // AES-128 encryption of exported batches
	Authorization bool // require writeAccess[T](sender)
	Delegation    Delegation
}

// Name returns the label used in the paper's figures, e.g. "RSA-AES" —
// batch-signed RSA is labelled "RSA-batch". ParsePolicyName is its inverse.
func (p PolicyConfig) Name() string {
	n := p.Auth.String()
	if p.BatchSign && p.Auth == AuthRSA {
		n += "-batch"
	}
	if p.Encrypt {
		n += "-AES"
	}
	return n
}

// ParsePolicyName parses a policy label of the paper's figures — NoAuth,
// HMAC or RSA, optionally with the -batch (footnote 2) and -AES modifiers,
// e.g. "RSA-batch-AES" — into the configuration Name renders it from. Typos
// yield errors naming the bad label and the accepted forms.
func ParsePolicyName(name string) (PolicyConfig, error) {
	rest, encrypt := strings.CutSuffix(name, "-AES")
	rest, batch := strings.CutSuffix(rest, "-batch")
	p := PolicyConfig{BatchSign: batch, Encrypt: encrypt}
	switch rest {
	case "NoAuth":
	case "HMAC":
		p.Auth = AuthHMAC
	case "RSA":
		p.Auth = AuthRSA
	default:
		return PolicyConfig{}, fmt.Errorf("core: unknown policy %q: want NoAuth, HMAC or RSA, optionally with -batch and/or -AES suffixes (e.g. RSA-batch-AES)", name)
	}
	if err := p.check(); err != nil {
		return PolicyConfig{}, fmt.Errorf("core: policy %q: %w", name, err)
	}
	return p, nil
}

// check refuses a configuration no label names: batch signing is footnote 2's
// aggregate of RSA signatures, so it needs the RSA scheme.
func (p PolicyConfig) check() error {
	if p.BatchSign && p.Auth != AuthRSA {
		return fmt.Errorf("-batch requires the RSA scheme (BatchSign under %s)", p.Auth)
	}
	return nil
}

// usesSecrets reports whether the policy reads pairwise shared secrets: HMAC
// authenticates with them and AES encrypts with them.
func (p PolicyConfig) usesSecrets() bool { return p.Auth == AuthHMAC || p.Encrypt }

// basePolicy declares the says mapping and the authentication constraint of
// §3.2: both principals of a said fact must be known principals, and the
// remaining arguments carry the subject predicate's types.
const basePolicy = `
	says[T]=ST, predicate(ST),
	` + "`" + `{
		ST(P1, P2, V*) -> principal(P1), principal(P2), types[T](V*).
	}
	<-- predicate(T), exportable(T).

	says(P, SP) --> exportable(P).
`

// authorizationPolicy is §3.2's write-access control: a principal may only
// say facts about T if it holds writeAccess[T].
const authorizationPolicy = "`" + `{
		says[T](P1, P2, V*) -> writeAccess[T](P1).
	} <-- predicate(T), exportable(T).
`

// Import policies (§3.2 benign world, §6.1 delegation).
const (
	importAll = "`" + `{
		T(V*) <- says[T](P, self[], V*).
	} <-- predicate(T), exportable(T).
`
	importTrustworthy = "`" + `{
		T(V*) <- says[T](P, self[], V*), trustworthy(P).
	} <-- predicate(T), exportable(T).
`
	importPerPred = "`" + `{
		T(V*) <- says[T](P, self[], V*), trustworthyPerPred[T](P).
	} <-- predicate(T), exportable(T).
`
)

// Signature policies (§3.2): generation rule at the sender, verification
// constraint at the receiver, for the two schemes that sign each said fact.
// NoAuth and RSA-batch keep no sig relation (see exportPolicy).
//
// A fact a node says to itself is decided here, once, for every scheme: it is
// neither signed nor exported, and needs no signature to stand. Every import
// rule — the policy's and an application's — reads says[T](U, self[], V*), so
// the local says[T](self[], self[], V*) is imported where it was derived; the
// sign/export/verify path, and the secret or export_batch row it would need
// for P = self, is for facts that cross the network.
const (
	sigRSA = "`" + `{
		sig[T](self[], P, V*, S) <- says[T](self[], P, V*), P != self[],
			private_key[]=K, rsa_sign[T](K, V*, S).
		says[T](P, self[], V*), P != self[] -> sig[T](P, self[], V*, S),
			public_key(P, K), rsa_verify[T](K, V*, S).
	} <-- predicate(T), exportable(T).
`
	sigHMAC = "`" + `{
		sig[T](self[], P, V*, S) <- says[T](self[], P, V*), P != self[],
			secret(P, K), hmac_sign[T](K, V*, S).
		says[T](P, self[], V*), P != self[] -> sig[T](P, self[], V*, S),
			secret(P, K), hmac_verify[T](K, V*, S).
	} <-- predicate(T), exportable(T).
`
)

// sigRSABatch is footnote 2's batch-signed RSA: the sender attaches no
// per-tuple signature — instead the node runtime signs once per shipping
// transaction, over the group root of the payload digests of every envelope
// the transaction ships, and the receiver's runtime records, for each payload
// of an envelope, an export_batch row carrying D — the root recomputed from
// the payloads it received and the sibling digests the envelope claims
// (wire.Message.BatchRoot) — and the envelope's signature S. The signature
// therefore covers the exact payload sequence of every envelope of the
// group: tampering with a payload, a sibling digest or the position changes
// D and fails the check, and an envelope verifies without its siblings.
// What the signature does not cover is the destination or a freshness
// value — neither did the per-envelope digest this replaces, nor does sigRSA's
// per-tuple signature over V* — so redirection and replay stand exactly where
// they stood: a recorded envelope verifies again wherever the sender's key is
// known, and re-asserting facts the sender did say derives nothing new at a
// node that already holds them. The constraints close the loop:
// every export asserted at this node (the runtime binds inbound exports to
// the local address) must be covered by an export_batch row, and every
// export_batch row must verify against the public key of the principal at
// the claimed origin node. This covers messages spoofing the local node's own
// address — the forger cannot produce this node's batch signature — and costs
// nothing locally: a fact the node says to itself is never signed, so never
// exported (see the signature policies). One message is one transaction, so a failed batch
// signature rolls the whole envelope back — exactly the per-tuple schemes'
// rejection granularity, at one RSA verification per envelope (the verify
// pool memoizes the identical (key, root, signature) triple across an
// envelope's rows). Only this policy declares export_batch: a node under any
// other scheme refuses batch envelopes instead of storing rows no constraint
// reads.
const sigRSABatch = `
	export_batch(L, Pkt, D, S) -> node(L), bytes(Pkt), bytes(D), bytes(S).
	export(N, L, Pkt), principal_node[self[]]=N ->
		export_batch(L, Pkt, D, S).
	export_batch(L, Pkt, D, S) ->
		principal_node[U]=L, public_key(U, K), rsa_verify_batch(K, D, S).
`

// sigAtom is ", sig[T](ps, V*, S)" under HMAC and RSA, which sign and verify
// each said fact, and nothing under NoAuth and RSA-batch, which keep no sig.
func (p PolicyConfig) sigAtom(ps string) string {
	if p.Auth == AuthHMAC || p.Auth == AuthRSA && !p.BatchSign {
		return ", sig[T](" + ps + ", V*, S)"
	}
	return ""
}

// exportPolicy is the export/import dataflow (§5.1): serialize a said fact
// with its signature S (the sig row's, else the empty noauth tag), look up the
// destination principal's node, and ship it; the receiver deserializes and
// rederives the says fact and its sig fact, if any, which the verification
// constraint checks. An export from this node's own principal imports
// nothing: the node never exports to itself, so such a datagram is a forgery.
// AES seals the packet with the pairwise shared secret — the paper's "only
// difference is the last line" customization.
func (p PolicyConfig) exportPolicy() string {
	tag, pkt, seal, open := p.sigAtom("self[], U"), "Pkt", "", ""
	if tag == "" {
		tag = ", U != self[], noauth_sign[T](V*, S)"
	}
	if p.Encrypt {
		pkt, seal, open = "CT", ", secret(U, K2), aesencrypt(Pkt, K2, CT)", ", secret(U, K2), aesdecrypt(CT, K2, Pkt)"
	}
	return "`" + `{
		export(N, L, ` + pkt + `) <- says[T](self[], U, V*)` + tag + `,
			serialize[T](S, Pkt, V*),
			principal_node[U]=N, principal_node[self[]]=L` + seal + `.
		says[T](U, self[], V*)` + p.sigAtom("U, self[]") + ` <-
			export(N, L, ` + pkt + `), principal_node[self[]]=N, principal_node[U]=L, U != self[]` + open + `,
			deserialize[T](S, Pkt, V*).
	} <-- predicate(T), exportable(T).
`
}

// SpeaksFor returns the restricted-delegation construct of §6.1 ("allowing
// another principal to act with your authority") for the scheme: if
// speaksfor(P3, P1) holds locally, facts said by P3 are also attributed to
// P1. Under HMAC and RSA the attributed fact carries P3's sig row, which must
// still verify for P1 (an HMAC trust domain, or an explicitly re-signed
// delegation); under NoAuth and RSA-batch it reads says alone.
func (p PolicyConfig) SpeaksFor() string {
	return `
	speaksfor(P1, P2) -> principal(P1), principal(P2).
	` + "`" + `{
		says[T](P1, P2, V*)` + p.sigAtom("P1, P2") + ` <-
			says[T](P3, P2, V*)` + p.sigAtom("P3, P2") + `, speaksfor(P3, P1).
	} <-- predicate(T), exportable(T).
`
}

// Sources returns the BloxGenerics policy sources implementing this
// configuration, ready for the generics compiler.
func (p PolicyConfig) Sources() []string {
	out := []string{basePolicy}
	switch {
	case p.Auth == AuthHMAC:
		out = append(out, sigHMAC)
	case p.Auth == AuthRSA && p.BatchSign:
		out = append(out, sigRSABatch)
	case p.Auth == AuthRSA:
		out = append(out, sigRSA)
	}
	out = append(out, p.exportPolicy())
	if p.Authorization {
		out = append(out, authorizationPolicy)
	}
	switch p.Delegation {
	case DelegateAll:
		out = append(out, importAll)
	case DelegateTrustworthy:
		out = append(out, importTrustworthy)
	case DelegatePerPred:
		out = append(out, importPerPred)
	case DelegateNone:
		// application handles says tuples itself
	default:
		panic(fmt.Sprintf("unknown delegation mode %d", p.Delegation))
	}
	return out
}
