package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// FuzzDecodeMessage feeds DecodeMessage what the paper's adversary can put on
// a socket. Whatever the bytes: it returns instead of panicking; it allocates
// in proportion to the input, never to a count the input merely claims; a
// message it accepts copies nothing out of the input but the sender address —
// the run, every payload walked off it, the signature and the siblings alias
// it, capped at their length — so decoding takes at most one allocation
// however many payloads there are; it accepts exactly what the list decoder
// below accepts, yielding the same payloads in the same order and a group root
// equal to GroupRoot over the list form of BatchDigest; and it survives
// Encode∘Decode unchanged. The seed corpus under
// testdata/fuzz/FuzzDecodeMessage covers data, batch (k=1, k>1), control and a
// few near-miss envelopes.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := DecodeMessage(data)
		runtime.ReadMemStats(&after)
		// The sender address, with slack for the fuzzing worker's own
		// goroutines.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(data)+1<<16); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		list, listErr := decodeListMessage(data)
		if (err == nil) != (listErr == nil) {
			t.Fatalf("DecodeMessage says %v, the list decoder %v", err, listErr)
		}
		if err != nil {
			return
		}
		parts := [][]byte{m.Sig, m.Siblings, m.Run.Bytes}
		var payloads [][]byte
		for run := m.Run; run.N > 0; {
			payloads = append(payloads, run.Next())
		}
		for i, p := range append(parts, payloads...) {
			if len(p) > 0 && (!aliases(data, p) || cap(p) != len(p)) {
				t.Fatalf("part %d of the message (%d bytes, cap %d) is not a capped view of the input", i, len(p), cap(p))
			}
		}
		if len(payloads) != len(list.Payloads) {
			t.Fatalf("the run holds %d payloads, the list decoder found %d", len(payloads), len(list.Payloads))
		}
		for i := range payloads {
			if !bytes.Equal(payloads[i], list.Payloads[i]) {
				t.Fatalf("payload %d is %x, the list decoder's %x", i, payloads[i], list.Payloads[i])
			}
		}
		if m.Kind != list.Kind || m.From != list.From || !bytes.Equal(m.Sig, list.Sig) || m.Pos != list.Pos ||
			!bytes.Equal(m.Siblings, list.Siblings) || m.Trace != list.Trace || m.Hop != list.Hop {
			t.Fatalf("the envelope decodes as %+v, by the list decoder as %+v", m, list)
		}
		// The sender address; a payload list, or a copy of a payload, the
		// signature or the siblings, would be a second.
		if n := testing.AllocsPerRun(1, func() { _, _ = DecodeMessage(data) }); n > 1 {
			t.Fatalf("decoding a %d-payload message allocated %.0f times, want at most 1", m.Run.N, n)
		}
		if m.Kind == MsgBatch {
			if len(m.Siblings)%DigestSize != 0 || len(m.Siblings) >= MaxGroup*DigestSize || int(m.Pos) > len(m.Siblings)/DigestSize {
				t.Fatalf("accepted group fields out of range: pos %d, %d sibling bytes", m.Pos, len(m.Siblings))
			}
			at := int(m.Pos) * DigestSize
			if want := GroupRoot(m.Siblings[:at], BatchDigest(list.Payloads), m.Siblings[at:]); !bytes.Equal(m.BatchRoot(), want) {
				t.Fatalf("the group root over the run is %x, over the payload list %x", m.BatchRoot(), want)
			}
		}
		enc := EncodeMessage(m)
		again, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted message does not decode: %v", err)
		}
		if !bytes.Equal(EncodeMessage(again), enc) || !bytes.Equal(EncodeMessage(list), enc) {
			t.Fatal("Encode∘Decode is not the identity on an encoded message")
		}
	})
}

// decodeListMessage is the message decoder that returned the payloads as a
// list, kept as FuzzDecodeMessage's reference: the run DecodeMessage returns
// must hold what this finds.
func decodeListMessage(buf []byte) (Message, error) {
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
		m.Sig = sig
		var pos, sibs uint64
		if pos, buf, err = readUvarint(buf); err != nil {
			return m, err
		}
		if sibs, buf, err = readUvarint(buf); err != nil {
			return m, err
		}
		if sibs >= MaxGroup || sibs > uint64(len(buf))/DigestSize {
			return m, ErrTruncated
		}
		if pos > sibs {
			return m, fmt.Errorf("wire: position %d outside a group of %d", pos, sibs+1)
		}
		m.Pos = uint32(pos)
		if sibs > 0 {
			m.Siblings, buf = buf[:sibs*DigestSize:sibs*DigestSize], buf[sibs*DigestSize:]
		}
	}
	if m.Kind != MsgControl {
		if m.Trace, buf, err = readUvarint(buf); err != nil {
			return m, err
		}
		var hop uint64
		if hop, buf, err = readUvarint(buf); err != nil {
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
	if cnt > uint64(len(buf)) {
		return m, ErrTruncated
	}
	m.Payloads = make([][]byte, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		var p []byte
		if p, buf, err = readField(buf); err != nil {
			return m, err
		}
		m.Payloads = append(m.Payloads, p)
	}
	if len(buf) != 0 {
		return m, fmt.Errorf("wire: %d trailing bytes after message", len(buf))
	}
	return m, nil
}

// aliases reports whether part lies inside buf's storage.
func aliases(buf, part []byte) bool {
	lo, at := uintptr(unsafe.Pointer(unsafe.SliceData(buf))), uintptr(unsafe.Pointer(unsafe.SliceData(part)))
	return at >= lo && at+uintptr(len(part)) <= lo+uintptr(len(buf))
}

// FuzzDecodeControl feeds DecodeControl the single payload of a MsgControl
// datagram, which anyone who can reach the socket can write: a joining node
// decodes every datagram before it knows any key. Whatever the bytes: it
// returns instead of panicking; the peer and member counts it claims are
// checked against the entries the remaining buffer can hold before anything
// is allocated for them; it never accepts type 4, which names nothing; and a
// record it accepts survives Encode∘Decode unchanged. The seeds are a probe
// and reports below and, under testdata/fuzz/FuzzDecodeControl, one record of
// every barrier and eviction type and near misses (truncated, lying member
// counts, a lying public key length, type 4); in lying-count-60k the count is
// one per remaining byte.
func FuzzDecodeControl(f *testing.F) {
	f.Add(EncodeControl(Control{Type: CtrlProbe, Wave: 7}))
	f.Add(EncodeControl(Control{Type: CtrlReport, Wave: 7, Active: true}))
	f.Add(EncodeControl(Control{Type: CtrlReport, Wave: 22, Peers: []PeerCount{
		{Addr: "10.0.0.1:7000", Sent: 6, Recv: 5}, {Addr: "10.0.0.3:7000", Sent: 1 << 40},
	}}))
	f.Add([]byte{byte(CtrlReport), 0, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 2^32 peers claimed, none present
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := DecodeControl(data)
		runtime.ReadMemStats(&after)
		// A PeerCount is 32 bytes and its entry at least three input bytes, a
		// MemberInfo 56 and at least four, plus the copies of what they hold,
		// with slack for the fuzzing worker.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+1<<16); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		if c.Type == 4 {
			t.Fatal("accepted type 4")
		}
		again, err := DecodeControl(EncodeControl(c))
		if err != nil {
			t.Fatalf("re-encoding of an accepted record does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("Encode∘Decode changed the record: %+v -> %+v", c, again)
		}
	})
}

// FuzzDecodeJoin feeds ReadControl whole datagrams, the path by which the
// cluster's join handshake and its barriers read the socket: a joining node
// decodes every datagram before it knows any key, so anyone who can reach it
// writes them. Whatever the bytes: it returns instead of panicking; the
// envelope and the record together allocate in proportion to the input, never
// to a count it claims; it never accepts type 4; and a record it accepts
// survives ControlMessage∘ReadControl unchanged. The seeds are a join, a
// directory, an eviction and a go release in their envelopes, and near misses:
// a join record outside the control envelope, and type 4 in one.
func FuzzDecodeJoin(f *testing.F) {
	member := MemberInfo{Principal: "n1", Addr: "10.0.0.1:7000", PubKey: []byte{0x30, 0x81, 0x89}}
	f.Add(ControlMessage("10.0.0.1:7000", Control{Type: CtrlJoin, Cluster: "c", Members: []MemberInfo{member}}))
	f.Add(ControlMessage("10.0.0.9:7000", Control{Type: CtrlDirectory, Cluster: "c", Members: []MemberInfo{
		member, {Principal: "n2", Addr: "10.0.0.2:7000"},
	}}))
	f.Add(ControlMessage("10.0.0.2:7000", Control{Type: CtrlEvict, Cluster: "c", Members: []MemberInfo{{Principal: "n1"}}}))
	f.Add(ControlMessage("10.0.0.9:7000", Control{Type: CtrlGo, Cluster: "c"}))
	f.Add(EncodeControl(Control{Type: CtrlJoin, Cluster: "c", Members: []MemberInfo{member}}))
	f.Add(EncodeMessage(Message{Kind: MsgControl, From: "10.0.0.1:7000", Run: Run{}.Append([]byte{4, 1, 'c', 0, 0, 0, 0})}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := ReadControl(data)
		runtime.ReadMemStats(&after)
		// The bounds of DecodeMessage and DecodeControl added.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(48*len(data)+1<<16); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		if c.Type == 4 {
			t.Fatal("accepted type 4")
		}
		again, err := ReadControl(ControlMessage("10.0.0.1:7000", c))
		if err != nil {
			t.Fatalf("re-encoding of an accepted record does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("ControlMessage∘ReadControl changed the record: %+v -> %+v", c, again)
		}
	})
}

// FuzzDecodePayload feeds the payload codec what rides inside an export tuple:
// under NoAuth anyone who can reach the socket writes it, and under AES it is
// whatever a wrong key decrypts to. Whatever the bytes: DecodePayload and
// PayloadHasPred return instead of panicking; decoding allocates in proportion
// to the input, never to a count the input claims; PayloadHasPred allocates
// nothing at all and agrees with the decoded predicate whenever the payload
// decodes; and an accepted payload survives Encode∘Decode unchanged, in a buffer
// EncodePayload sized exactly. The seed corpus under
// testdata/fuzz/FuzzDecodePayload holds a path-vector payload unsigned and
// signed, one with every value kind, one with no values, neighbouring
// predicate names, and near misses (truncated, trailing byte, lying counts).
func FuzzDecodePayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := DecodePayload(data)
		runtime.ReadMemStats(&after)
		// A value is 32 bytes and takes at least two input bytes, plus the
		// copies of what it holds, with slack for the fuzzing worker.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+1<<16); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		var has bool
		if n := testing.AllocsPerRun(1, func() { has = PayloadHasPred(data, "path") }); n != 0 {
			t.Fatalf("PayloadHasPred allocated %.0f times", n)
		}
		if err != nil {
			return
		}
		if has != (p.Pred == "path") || !PayloadHasPred(data, p.Pred) || PayloadHasPred(data, p.Pred+"x") {
			t.Fatalf("PayloadHasPred disagrees with the decoded predicate %q", p.Pred)
		}
		enc := EncodePayload(p)
		if len(enc) != cap(enc) {
			t.Fatalf("EncodePayload sized its buffer at %d for %d bytes", cap(enc), len(enc))
		}
		again, err := DecodePayload(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted payload does not decode: %v", err)
		}
		if again.Pred != p.Pred || !bytes.Equal(again.Sig, p.Sig) || !again.Vals.Equal(p.Vals) || !bytes.Equal(EncodePayload(again), enc) {
			t.Fatalf("Encode∘Decode changed the payload: %+v -> %+v", p, again)
		}
		if sd := SigData(p.Pred, p.Vals); len(sd) != cap(sd) {
			t.Fatalf("SigData sized its buffer at %d for %d bytes", cap(sd), len(sd))
		}
	})
}
