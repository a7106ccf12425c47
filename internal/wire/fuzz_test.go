package wire

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// FuzzDecodeMessage feeds DecodeMessage what the paper's adversary can put on
// a socket. Whatever the bytes: it returns instead of panicking; it allocates
// in proportion to the input, never to a count the input merely claims (a
// payload costs at least one input byte and a slice header, everything else is
// copied out of the input); and a message it accepts survives Encode∘Decode
// unchanged, with a group root that can be computed. The seed corpus under
// testdata/fuzz/FuzzDecodeMessage covers data, batch (k=1, k>1), control and
// a few near-miss envelopes.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := DecodeMessage(data)
		runtime.ReadMemStats(&after)
		// 24 bytes of slice header per claimed payload plus the copies, with
		// slack for the fuzzing worker's own goroutines.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+1<<16); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		if m.Kind == MsgBatch {
			if len(m.Siblings)%DigestSize != 0 || len(m.Siblings) >= MaxGroup*DigestSize || int(m.Pos) > len(m.Siblings)/DigestSize {
				t.Fatalf("accepted group fields out of range: pos %d, %d sibling bytes", m.Pos, len(m.Siblings))
			}
			if len(m.BatchRoot()) != DigestSize {
				t.Fatal("accepted batch envelope has no group root")
			}
		}
		enc := EncodeMessage(m)
		again, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted message does not decode: %v", err)
		}
		if !bytes.Equal(EncodeMessage(again), enc) {
			t.Fatal("Encode∘Decode is not the identity on an encoded message")
		}
	})
}

// FuzzDecodeControl feeds DecodeControl the single payload of a MsgControl
// datagram, which anyone who can reach the socket can write. Whatever the
// bytes: it returns instead of panicking; the peer count it claims is checked
// against the entries the remaining buffer can hold before anything is
// allocated for it; and a record it accepts survives Encode∘Decode unchanged.
func FuzzDecodeControl(f *testing.F) {
	f.Add(EncodeControl(Control{Type: CtrlProbe, Wave: 7}))
	f.Add(EncodeControl(Control{Type: CtrlReport, Wave: 7, Active: true}))
	f.Add(EncodeControl(Control{Type: CtrlReport, Wave: 22, Peers: []PeerCount{
		{Addr: "10.0.0.1:7000", Sent: 6, Recv: 5}, {Addr: "10.0.0.3:7000", Sent: 1 << 40},
	}}))
	f.Add([]byte{byte(CtrlReport), 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 2^32 peers claimed, none present
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := DecodeControl(data)
		runtime.ReadMemStats(&after)
		// A PeerCount is 32 bytes and its entry at least three input bytes,
		// plus the address copies, with slack for the fuzzing worker.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+1<<16); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
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

// FuzzDecodeJoin feeds DecodeJoin what the bootstrap handshake reads off a
// socket before any key is known: every datagram is decoded speculatively, so
// anyone who can reach a joining node writes it. Whatever the bytes: it
// returns instead of panicking; it allocates in proportion to the input,
// never to a member count the input claims; it never accepts the retired
// type 4; and a record it accepts survives Encode∘Decode unchanged. The seed
// corpus under testdata/fuzz/FuzzDecodeJoin holds one record of every type
// and near misses (truncated, lying member counts, retired type 4); in
// lying-count-60k the count is one per remaining byte.
func FuzzDecodeJoin(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j, err := DecodeJoin(data)
		runtime.ReadMemStats(&after)
		// A MemberInfo is 56 bytes and takes at least three input bytes, plus
		// the copies of what it holds, with slack for the fuzzing worker.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+1<<16); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		if j.Type == 4 {
			t.Fatal("accepted the retired type 4")
		}
		again, err := DecodeJoin(EncodeJoin(j))
		if err != nil {
			t.Fatalf("re-encoding of an accepted record does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, j) {
			t.Fatalf("Encode∘Decode changed the record: %+v -> %+v", j, again)
		}
	})
}
