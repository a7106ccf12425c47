// Package wire implements the deterministic binary encoding SecureBlox uses
// on the network: values, tuples, the serialize/deserialize payload format
// (predicate name + signature + argument values), and transport message
// batches. All bandwidth numbers in the benchmarks are measured over these
// real encoded bytes.
package wire

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"secureblox/internal/datalog"
)

// ErrTruncated is returned when a buffer ends before a value is complete.
var ErrTruncated = errors.New("wire: truncated input")

func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// uvarintLen is the number of bytes appendUvarint writes for v, fieldLen the
// number a length-prefixed byte string of n bytes takes.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
func fieldLen(n int) int      { return uvarintLen(uint64(n)) + n }

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, buf[n:], nil
}

// readField reads one length-prefixed byte string as a view of buf.
func readField(buf []byte) (field, rest []byte, err error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(buf)) < n {
		return nil, nil, ErrTruncated
	}
	return buf[:n], buf[n:], nil
}

// AppendValue encodes one value.
func AppendValue(buf []byte, v datalog.Value) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case datalog.KindInt, datalog.KindBool:
		buf = appendUvarint(buf, uint64(v.Int))
	case datalog.KindString, datalog.KindName, datalog.KindNode, datalog.KindPrin, datalog.KindBytes:
		buf = appendUvarint(buf, uint64(len(v.Str)))
		buf = append(buf, v.Str...)
	case datalog.KindEntity:
		buf = appendUvarint(buf, uint64(len(v.Str)))
		buf = append(buf, v.Str...)
		buf = appendUvarint(buf, uint64(v.Int))
	}
	return buf
}

// valueLen is the number of bytes AppendValue writes for v.
func valueLen(v datalog.Value) int {
	switch v.Kind {
	case datalog.KindInt, datalog.KindBool:
		return 1 + uvarintLen(uint64(v.Int))
	case datalog.KindString, datalog.KindName, datalog.KindNode, datalog.KindPrin, datalog.KindBytes:
		return 1 + fieldLen(len(v.Str))
	case datalog.KindEntity:
		return 1 + fieldLen(len(v.Str)) + uvarintLen(uint64(v.Int))
	}
	return 1
}

// ReadValue decodes one value, returning it and the remaining bytes.
func ReadValue(buf []byte) (datalog.Value, []byte, error) {
	if len(buf) == 0 {
		return datalog.Value{}, nil, ErrTruncated
	}
	kind := datalog.Kind(buf[0])
	buf = buf[1:]
	var v datalog.Value
	v.Kind = kind
	switch kind {
	case datalog.KindInt, datalog.KindBool:
		u, rest, err := readUvarint(buf)
		if err != nil {
			return v, nil, err
		}
		v.Int = int64(u)
		return v, rest, nil
	case datalog.KindString, datalog.KindName, datalog.KindNode, datalog.KindPrin, datalog.KindBytes:
		str, rest, err := readField(buf)
		if err != nil {
			return v, nil, err
		}
		v.Str = string(str)
		return v, rest, nil
	case datalog.KindEntity:
		str, rest, err := readField(buf)
		if err != nil {
			return v, nil, err
		}
		v.Str = string(str)
		id, rest, err := readUvarint(rest)
		if err != nil {
			return v, nil, err
		}
		v.Int = int64(id)
		return v, rest, nil
	default:
		return v, nil, fmt.Errorf("wire: bad value kind %d", kind)
	}
}

// AppendTuple encodes a tuple with a leading count.
func AppendTuple(buf []byte, t datalog.Tuple) []byte {
	buf = appendUvarint(buf, uint64(len(t)))
	for _, v := range t {
		buf = AppendValue(buf, v)
	}
	return buf
}

// tupleLen is the number of bytes AppendTuple writes for t.
func tupleLen(t datalog.Tuple) int {
	n := uvarintLen(uint64(len(t)))
	for _, v := range t {
		n += valueLen(v)
	}
	return n
}

// ReadCount reads an encoded tuple's leading count, returning it and the
// encoded values.
func ReadCount(buf []byte) (int, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return 0, nil, err
	}
	// Every encoded value takes at least two bytes (kind + one payload
	// byte), so a count beyond that is a lie — reject it before trusting
	// it with an allocation. Ciphertext and garbage are decoded
	// speculatively on the inbound path and must stay harmless. (Divide
	// rather than multiply: 2*n overflows for counts near 2^64.)
	if n > uint64(len(buf))/2 {
		return 0, nil, ErrTruncated
	}
	return int(n), buf, nil
}

// ReadTuple decodes a tuple.
func ReadTuple(buf []byte) (datalog.Tuple, []byte, error) {
	n, buf, err := ReadCount(buf)
	if err != nil {
		return nil, nil, err
	}
	t := make(datalog.Tuple, 0, n)
	for i := 0; i < n; i++ {
		var v datalog.Value
		v, buf, err = ReadValue(buf)
		if err != nil {
			return nil, nil, err
		}
		t = append(t, v)
	}
	return t, buf, nil
}

// Payload is the self-describing unit produced by the serialize UDF and
// consumed by deserialize: the said predicate, the signature over its
// values, and the values themselves.
type Payload struct {
	Pred string
	Sig  []byte
	Vals datalog.Tuple
}

// EncodePayload serializes a payload into a buffer of exactly its size.
func EncodePayload(p Payload) []byte {
	buf := make([]byte, 0, fieldLen(len(p.Pred))+fieldLen(len(p.Sig))+tupleLen(p.Vals))
	buf = appendUvarint(buf, uint64(len(p.Pred)))
	buf = append(buf, p.Pred...)
	buf = appendUvarint(buf, uint64(len(p.Sig)))
	buf = append(buf, p.Sig...)
	buf = AppendTuple(buf, p.Vals)
	return buf
}

// PayloadHasPred reports whether buf starts as a payload of the given
// predicate does, without decoding — or allocating — anything. An import rule
// is offered every inbound payload and keeps the few that are its own; this is
// the test that turns the others away.
func PayloadHasPred(buf []byte, pred string) bool {
	p, _, err := readField(buf)
	return err == nil && string(p) == pred
}

// OpenPayload cuts a payload into its predicate, its signature and its encoded
// tuple, all views of buf. A caller that knows the shape it wants walks the
// tuple itself, with ReadCount and ReadValue, and must find it used up.
func OpenPayload(buf []byte) (pred, sig, tuple []byte, err error) {
	if pred, buf, err = readField(buf); err != nil {
		return nil, nil, nil, err
	}
	if sig, buf, err = readField(buf); err != nil {
		return nil, nil, nil, err
	}
	return pred, sig, buf, nil
}

// DecodePayload parses a payload.
func DecodePayload(buf []byte) (Payload, error) {
	var p Payload
	pred, sig, buf, err := OpenPayload(buf)
	if err != nil {
		return p, err
	}
	p.Pred, p.Sig = string(pred), append([]byte(nil), sig...)
	p.Vals, buf, err = ReadTuple(buf)
	if err != nil {
		return p, err
	}
	if len(buf) != 0 {
		return p, fmt.Errorf("wire: %d trailing bytes after payload", len(buf))
	}
	return p, nil
}

// SigData returns the canonical bytes that signatures cover: the predicate
// name (domain separation) followed by the encoded values.
func SigData(pred string, vals datalog.Tuple) []byte {
	buf := appendUvarint(make([]byte, 0, fieldLen(len(pred))+tupleLen(vals)), uint64(len(pred)))
	buf = append(buf, pred...)
	return AppendTuple(buf, vals)
}

// MsgKind distinguishes application traffic from runtime control traffic
// on the wire. Control messages carry the distributed termination-detection
// protocol (probes and reports); they are consumed by the node runtime and
// never enter a workspace.
type MsgKind byte

// Message kinds.
const (
	// MsgData carries export payloads between workspaces.
	MsgData MsgKind = 0
	// MsgControl carries one encoded Control record.
	MsgControl MsgKind = 1
	// MsgBatch carries export payloads covered by a batch signature instead
	// of one signature per tuple (paper footnote 2). The signed unit is the
	// group of envelopes one transaction shipped: the signature covers the
	// root over every envelope's BatchDigest (Message.BatchRoot), each
	// envelope carries its siblings' digests, and the receiver's policy
	// verifies once per envelope.
	MsgBatch MsgKind = 2
)

// Message is one transport datagram: a batch of export tuples committed by
// a single transaction (MsgData, or MsgBatch when the batch is covered by
// an aggregate signature), or one termination-detection control record
// (MsgControl), addressed from one node to another.
type Message struct {
	Kind     MsgKind
	From     string   // sender node address
	Sig      []byte   // MsgBatch only: signature over BatchRoot()
	Payloads [][]byte // opaque export payloads (possibly encrypted)

	// MsgBatch only: where this envelope stands in its signing group, and
	// the BatchDigests of the group's other envelopes in group order,
	// DigestSize bytes each. A lone envelope is a group of one: position 0,
	// no siblings.
	Pos      uint32
	Siblings []byte

	// Trace and Hop carry the derivation wave's identity on data and
	// batch envelopes (never on control records): Trace is stamped by the
	// transaction that originated the wave and propagated unchanged, Hop
	// counts shipping steps from that origin. A zero Trace means the
	// message is untraced. Tracing rides the envelope, not the signed
	// payloads, so it changes no signature or policy semantics.
	Trace uint64
	Hop   uint32
}

// PayloadOverhead upper-bounds the framing bytes EncodeMessage adds per
// payload (one uvarint length prefix).
const PayloadOverhead = binary.MaxVarintLen64

// traceOverhead upper-bounds the trace-ID and hop-count framing on data
// and batch envelopes.
const traceOverhead = binary.MaxVarintLen64 + binary.MaxVarintLen32

// MessageOverhead upper-bounds the encoded size of a message from the
// given sender, excluding the payloads and their framing. Callers sizing
// batches against a datagram limit should sum this with PayloadOverhead +
// len(p) per payload, so the size estimate stays in lockstep with the
// actual encoding.
func MessageOverhead(from string) int {
	return 1 + binary.MaxVarintLen64 + len(from) + traceOverhead + binary.MaxVarintLen64
}

// MaxBatchSig upper-bounds the batch signature length the batch-envelope
// framing budgets for (RSA-1024 signatures are 128 bytes; the headroom
// admits larger keys without a wire change).
const MaxBatchSig = 512

// DigestSize is the length of a BatchDigest and of a group root.
const DigestSize = sha1.Size

// MaxGroup is the largest number of batch envelopes one signature covers. An
// envelope names its group with DigestSize bytes per sibling, so a group of k
// costs k·(k−1) digests on the wire: 16 keeps the worst envelope's share at
// 300 bytes and covers every fan-out the paper's workloads produce below the
// 48-way hash join, which signs three times per transaction.
const MaxGroup = 16

// MessageOverheadBatch is MessageOverhead for a batch envelope: the base
// framing plus the signature field and the sibling list at their budgeted
// maxima (position and sibling count are below MaxGroup: one byte each).
func MessageOverheadBatch(from string) int {
	return MessageOverhead(from) + binary.MaxVarintLen64 + MaxBatchSig + 2 + (MaxGroup-1)*DigestSize
}

// BatchDigest returns the SHA-1 digest identifying a batch envelope's
// payload sequence: each payload is length-prefixed so distinct sequences
// cannot collide by concatenation. The receiver recomputes it from the
// payloads it actually received, so any tampering with any payload changes
// the group root and invalidates the signature.
func BatchDigest(payloads [][]byte) []byte {
	h := sha1.New()
	var lenBuf [binary.MaxVarintLen64]byte
	for _, p := range payloads {
		n := binary.PutUvarint(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:n])
		h.Write(p)
	}
	return h.Sum(nil)
}

// groupDomain separates a group root from every other SHA-1 the system
// signs, a lone envelope's BatchDigest included.
const groupDomain = "sbx-batch-group\x00"

// GroupRoot returns what a batch group's one signature covers: the digest of
// its envelopes' BatchDigests, concatenated in group order (given here in any
// number of consecutive pieces).
func GroupRoot(digests ...[]byte) []byte {
	h := sha1.New()
	h.Write([]byte(groupDomain))
	for _, d := range digests {
		h.Write(d)
	}
	return h.Sum(nil)
}

// Siblings returns the sibling list carried by the envelope at position pos of
// a group with the given concatenated digests: all of them but its own.
func Siblings(digests []byte, pos int) []byte {
	at := pos * DigestSize
	return append(digests[:at:at], digests[at+DigestSize:]...)
}

// BatchRoot returns the group root a batch envelope's signature must cover,
// as this envelope vouches for it: the digest of the payloads it carries,
// placed at its position among the sibling digests it claims. It is the D of
// export_batch(L, Pkt, D, S) — the receiver's admission and its pre-verify
// warm-up both take it from here, so they agree by construction. Pos must not
// exceed the sibling count, which DecodeMessage guarantees.
func (m Message) BatchRoot() []byte {
	at := int(m.Pos) * DigestSize
	return GroupRoot(m.Siblings[:at], BatchDigest(m.Payloads), m.Siblings[at:])
}

// EncodeMessage serializes a message into a buffer of exactly its size.
func EncodeMessage(m Message) []byte {
	size := 1 + fieldLen(len(m.From)) + uvarintLen(uint64(len(m.Payloads)))
	if m.Kind == MsgBatch {
		size += fieldLen(len(m.Sig)) + uvarintLen(uint64(m.Pos)) + uvarintLen(uint64(len(m.Siblings)/DigestSize)) + len(m.Siblings)
	}
	if m.Kind != MsgControl {
		size += uvarintLen(m.Trace) + uvarintLen(uint64(m.Hop))
	}
	for _, p := range m.Payloads {
		size += fieldLen(len(p))
	}
	buf := append(make([]byte, 0, size), byte(m.Kind))
	buf = appendUvarint(buf, uint64(len(m.From)))
	buf = append(buf, m.From...)
	if m.Kind == MsgBatch {
		buf = appendUvarint(buf, uint64(len(m.Sig)))
		buf = append(buf, m.Sig...)
		buf = appendUvarint(buf, uint64(m.Pos))
		buf = appendUvarint(buf, uint64(len(m.Siblings)/DigestSize))
		buf = append(buf, m.Siblings...)
	}
	if m.Kind != MsgControl {
		buf = appendUvarint(buf, m.Trace)
		buf = appendUvarint(buf, uint64(m.Hop))
	}
	buf = appendUvarint(buf, uint64(len(m.Payloads)))
	for _, p := range m.Payloads {
		buf = appendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// DecodeMessage parses a message.
func DecodeMessage(buf []byte) (Message, error) {
	var m Message
	if len(buf) == 0 {
		return m, ErrTruncated
	}
	if buf[0] > byte(MsgBatch) {
		return m, fmt.Errorf("wire: bad message kind %d", buf[0])
	}
	m.Kind = MsgKind(buf[0])
	buf = buf[1:]
	from, buf, err := readField(buf)
	if err != nil {
		return m, err
	}
	m.From = string(from)
	if m.Kind == MsgBatch {
		var sig []byte
		if sig, buf, err = readField(buf); err != nil {
			return m, err
		}
		if len(sig) > MaxBatchSig {
			return m, ErrTruncated
		}
		m.Sig = append([]byte(nil), sig...)
		var pos, sibs uint64
		pos, buf, err = readUvarint(buf)
		if err != nil {
			return m, err
		}
		sibs, buf, err = readUvarint(buf)
		if err != nil {
			return m, err
		}
		// Bound the sibling count by the group limit and by what the buffer
		// holds before it sizes anything, like the payload count below.
		if sibs >= MaxGroup || sibs > uint64(len(buf))/DigestSize {
			return m, ErrTruncated
		}
		if pos > sibs {
			return m, fmt.Errorf("wire: position %d outside a group of %d", pos, sibs+1)
		}
		m.Pos = uint32(pos)
		if sibs > 0 {
			m.Siblings = append([]byte(nil), buf[:sibs*DigestSize]...)
			buf = buf[sibs*DigestSize:]
		}
	}
	if m.Kind != MsgControl {
		m.Trace, buf, err = readUvarint(buf)
		if err != nil {
			return m, err
		}
		var hop uint64
		hop, buf, err = readUvarint(buf)
		if err != nil {
			return m, err
		}
		if hop > 1<<32-1 {
			return m, fmt.Errorf("wire: hop count %d out of range", hop)
		}
		m.Hop = uint32(hop)
	}
	cnt, buf, err := readUvarint(buf)
	if err != nil {
		return m, err
	}
	// Every payload costs at least one framing byte, so a count beyond the
	// remaining buffer is a lie — reject it before trusting it with an
	// allocation (garbage is decoded speculatively on the inbound path).
	if cnt > uint64(len(buf)) {
		return m, ErrTruncated
	}
	if cnt > 0 {
		m.Payloads = make([][]byte, 0, cnt)
	}
	for i := uint64(0); i < cnt; i++ {
		var p []byte
		if p, buf, err = readField(buf); err != nil {
			return m, err
		}
		m.Payloads = append(m.Payloads, append([]byte(nil), p...))
	}
	if len(buf) != 0 {
		return m, fmt.Errorf("wire: %d trailing bytes after message", len(buf))
	}
	return m, nil
}
