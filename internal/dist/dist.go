// Package dist is the distributed node runtime of SecureBlox (paper §5):
// each Node owns one engine.Workspace running the compiled query+policy
// program, one transport endpoint, and a metrics collector, and runs the
// per-node transaction loop that turns derived export(N, L, Pkt) tuples
// into wire messages and inbound wire messages back into asserted export
// facts.
//
// The runtime is deliberately dumb about security: it ships opaque payload
// bytes and asserts received ones. All authentication, authorization,
// decryption and trust decisions happen inside the workspace, performed by
// the compiled policy rules and constraints (says/sig/serialize of §3 and
// §6) — a rejected batch is a constraint violation that rolls the whole
// message transaction back, which the node counts (Rejections) and whose
// first few errors it keeps (Violations).
//
// Termination: there is no shared work counter. Each node keeps monotone
// counters of the application messages it has shipped to and fully
// processed from its cluster peers, and answers wire-level termination
// probes with a snapshot of those counters plus whether local work is
// queued. A Detector broadcasts probe waves over the same transport the
// data uses; two consecutive all-passive waves with identical, balanced
// counter sums prove the distributed fixpoint ("no new facts are derived
// by any node") — over the in-process memnet and over real UDP alike,
// where the reliable layer's retransmissions keep the counters honest
// under datagram loss.
package dist

// ExportDecl is the BloxGenerics source declaring the export relation the
// runtime and the policies share: export(N, L, Pkt) holds an opaque payload
// Pkt addressed to node N, originating at node L. Policies derive export
// tuples on the sender (serialize/sign/encrypt) and consume them on the
// receiver (decrypt/deserialize/verify); the runtime ships any tuple whose
// destination is not the local node and asserts inbound ones with N bound
// to the local node and L to the sender's claimed address.
//
// A batch-signing policy also declares export_batch(L, Pkt, D, S), the
// receiver-side record of a batch envelope (paper footnote 2): payload Pkt
// arrived from node L inside an envelope whose full payload sequence digests
// to D and carries batch signature S. The runtime asserts one row per
// received payload, with D recomputed locally from the received sequence, and
// the policy constrains every remotely sourced export to be covered by a row
// whose signature verifies, so one RSA check (memoized across the rows of an
// envelope) authenticates the whole batch. A node whose program does not
// declare export_batch checks no batch signature, so it refuses every batch
// envelope (admit).
const ExportDecl = `
	export(N, L, Pkt) -> node(N), node(L), bytes(Pkt).
`
