package wire

import (
	"testing"
	"testing/quick"

	"secureblox/internal/datalog"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []datalog.Value{
		datalog.Int64(0), datalog.Int64(1 << 40), datalog.Bool(true),
		datalog.String_(""), datalog.String_("héllo"), datalog.BytesV([]byte{0, 1, 2}),
		datalog.Name("reachable"), datalog.NodeV("10.0.0.1:7001"),
		datalog.Prin("alice"), datalog.Entity("pathvar", 42),
	}
	for _, v := range vals {
		buf := AppendValue(nil, v)
		got, rest, err := ReadValue(buf)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if len(rest) != 0 || !got.Equal(v) {
			t.Errorf("round trip %s -> %s (rest %d)", v, got, len(rest))
		}
	}
}

func TestTupleRoundTripQuick(t *testing.T) {
	f := func(a int64, s string, b []byte) bool {
		in := datalog.Tuple{datalog.Int64(a), datalog.String_(s), datalog.BytesV(b)}
		out, rest, err := ReadTuple(AppendTuple(nil, in))
		return err == nil && len(rest) == 0 && out.Equal(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	p := Payload{
		Pred: "path",
		Sig:  []byte{9, 9, 9},
		Vals: datalog.Tuple{datalog.Prin("a"), datalog.Prin("b"), datalog.Int64(3)},
	}
	got, err := DecodePayload(EncodePayload(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Pred != p.Pred || string(got.Sig) != string(p.Sig) || !got.Vals.Equal(p.Vals) {
		t.Errorf("payload round trip: %+v", got)
	}
}

func TestPayloadRejectsTrailing(t *testing.T) {
	buf := EncodePayload(Payload{Pred: "p"})
	if _, err := DecodePayload(append(buf, 0xFF)); err == nil {
		t.Error("trailing bytes should be rejected")
	}
	if _, err := DecodePayload(buf[:len(buf)-1]); err == nil {
		t.Error("truncated payload should be rejected")
	}
	if _, err := DecodePayload(nil); err == nil {
		t.Error("empty payload should be rejected")
	}
}

func TestReadTupleRejectsLyingCounts(t *testing.T) {
	// A tuple count the buffer cannot possibly hold must be rejected
	// before any allocation — including counts whose doubling overflows.
	for _, n := range []uint64{1 << 20, 1 << 62, 1 << 63, ^uint64(0)} {
		buf := appendUvarint(nil, n)
		if _, _, err := ReadTuple(append(buf, 1, 2, 3)); err == nil {
			t.Errorf("count %d accepted against a 3-byte buffer", n)
		}
	}
}

func TestSigDataDomainSeparation(t *testing.T) {
	vals := datalog.Tuple{datalog.Int64(1)}
	if string(SigData("a", vals)) == string(SigData("b", vals)) {
		t.Error("signatures must be domain-separated by predicate")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := Message{From: "127.0.0.1:9000", Payloads: [][]byte{{1, 2}, {}, {3}}}
	got, err := DecodeMessage(EncodeMessage(m))
	if err != nil {
		t.Fatal(err)
	}
	if run := got.Run; got.Kind != MsgData || got.From != m.From || run.N != 3 || string(run.Next()) != "\x01\x02" {
		t.Errorf("message round trip: %+v", got)
	}
	if _, err := DecodeMessage([]byte{0xFF, 0, 0}); err == nil {
		t.Error("bad message kind should be rejected")
	}
	if _, err := DecodeMessage(nil); err == nil {
		t.Error("empty message should be rejected")
	}
}

// batchGroup builds the k envelopes of one signing group the way a sender
// does: distinct payloads each, every digest concatenated, one root.
func batchGroup(k int) (msgs []Message, root []byte) {
	var digests []byte
	for i := 0; i < k; i++ {
		msgs = append(msgs, Message{
			Kind: MsgBatch, From: "127.0.0.1:9000", Sig: []byte("batch signature bytes"),
			Run: Run{}.Append([]byte{1, 2, byte(i)}).Append(nil).Append([]byte{3}), Trace: 7, Hop: 2,
		})
		d := msgs[i].Run.Digest()
		digests = append(digests, d[:]...)
	}
	for i := range msgs {
		msgs[i].Pos, msgs[i].Siblings = uint32(i), Siblings(digests, i)
	}
	return msgs, GroupRoot(digests)
}

func TestBatchMessageRoundTrip(t *testing.T) {
	for _, k := range []int{1, 2, MaxGroup} {
		msgs, root := batchGroup(k)
		for i, m := range msgs {
			enc := EncodeMessage(m)
			got, err := DecodeMessage(enc)
			if err != nil {
				t.Fatalf("k=%d envelope %d: %v", k, i, err)
			}
			if got.Pos != m.Pos || string(got.Siblings) != string(m.Siblings) || string(got.Sig) != string(m.Sig) ||
				got.Trace != m.Trace || got.Hop != m.Hop || got.Run.N != 3 ||
				string(EncodeMessage(got)) != string(enc) {
				t.Errorf("k=%d envelope %d does not round-trip", k, i)
			}
			// Every envelope of a group vouches for the one root the sender signed.
			if string(got.BatchRoot()) != string(root) {
				t.Errorf("k=%d envelope %d recomputes a different root than the sender signed", k, i)
			}
			if want := len(m.Siblings) / DigestSize; want != k-1 {
				t.Errorf("k=%d envelope %d carries %d siblings", k, i, want)
			}
			if over := MessageOverheadBatch(m.From) + m.Run.N*PayloadOverhead + 5; len(enc) > over {
				t.Errorf("k=%d envelope of %d bytes exceeds its budget of %d", k, len(enc), over)
			}
		}
	}
	// An empty signature survives the trip (the field is present, empty).
	m := Message{Kind: MsgBatch, From: "a:1", Payloads: [][]byte{{1}}}
	if got, err := DecodeMessage(EncodeMessage(m)); err != nil || len(got.Sig) != 0 {
		t.Errorf("empty-sig batch round trip: %+v, %v", got, err)
	}
	// A truncated envelope is rejected at every cut point.
	msgs, _ := batchGroup(2)
	full := EncodeMessage(msgs[1])
	for i := 1; i < len(full); i++ {
		if _, err := DecodeMessage(full[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
}

func TestBatchRootBindsPayloadsSiblingsAndPosition(t *testing.T) {
	msgs, root := batchGroup(3)
	m := msgs[1]
	// A lone envelope's root is not its bare payload digest: the group domain
	// separates the two.
	lone, loneRoot := batchGroup(1)
	if d := lone[0].Run.Digest(); string(loneRoot) == string(d[:]) || string(lone[0].BatchRoot()) != string(loneRoot) {
		t.Error("a group of one must sign the domain-separated root of its one digest")
	}
	tamper := func(name string, f func(*Message)) {
		c := m
		c.Siblings = append([]byte(nil), m.Siblings...)
		f(&c)
		if string(c.BatchRoot()) == string(root) {
			t.Errorf("%s: root unchanged", name)
		}
	}
	tamper("payload", func(c *Message) {
		rest := c.Run
		rest.Next()
		c.Run = Run{}.Append([]byte{9})
		for rest.N > 0 {
			c.Run = c.Run.Append(rest.Next())
		}
	})
	tamper("sibling digest", func(c *Message) { c.Siblings[DigestSize+3] ^= 1 })
	tamper("position", func(c *Message) { c.Pos = 0 })
	tamper("sibling dropped", func(c *Message) { c.Siblings = c.Siblings[:DigestSize] })
	tamper("siblings swapped", func(c *Message) {
		c.Siblings = append(append([]byte(nil), m.Siblings[DigestSize:]...), m.Siblings[:DigestSize]...)
	})
}

func TestDecodeMessageRejectsLyingCounts(t *testing.T) {
	// A payload count (or signature length) the buffer cannot hold must be
	// rejected before any allocation is sized from it.
	head := []byte{byte(MsgData)}
	head = appendUvarint(head, 3)
	head = append(head, "a:1"...)
	for _, n := range []uint64{1 << 20, 1 << 62, ^uint64(0)} {
		buf := appendUvarint(append([]byte(nil), head...), n)
		if _, err := DecodeMessage(append(buf, 1, 2, 3)); err == nil {
			t.Errorf("payload count %d accepted against a tiny buffer", n)
		}
	}
	sigHead := []byte{byte(MsgBatch)}
	sigHead = appendUvarint(sigHead, 3)
	sigHead = append(sigHead, "a:1"...)
	huge := appendUvarint(append([]byte(nil), sigHead...), uint64(MaxBatchSig+1))
	huge = append(huge, make([]byte, MaxBatchSig+1)...)
	if _, err := DecodeMessage(appendUvarint(huge, 0)); err == nil {
		t.Error("oversized batch signature accepted")
	}
	// The group fields: a sibling count over the group limit or over what the
	// buffer holds, and a position outside the group, are all rejected — the
	// count before any allocation is sized from it.
	group := func(pos, sibs uint64, carried int) []byte {
		buf := appendUvarint(append([]byte(nil), sigHead...), 0) // empty signature
		buf = appendUvarint(appendUvarint(buf, pos), sibs)
		buf = append(buf, make([]byte, carried*DigestSize)...)
		return append(buf, 0, 0, 0) // trace, hop, no payloads
	}
	if _, err := DecodeMessage(group(1, 2, 2)); err != nil {
		t.Fatalf("well-formed group fields rejected: %v", err)
	}
	for name, buf := range map[string][]byte{
		"position = group size":      group(3, 2, 2),
		"position far outside":       group(1<<40, 2, 2),
		"sibling count = MaxGroup":   group(0, MaxGroup, MaxGroup),
		"sibling count over buffer":  group(0, 3, 1),
		"sibling count near 2^64":    group(0, ^uint64(0), 1),
		"sibling list cut mid-entry": group(0, 2, 2)[:len(group(0, 2, 2))-DigestSize/2-3],
	} {
		if _, err := DecodeMessage(buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestBatchDigestIsSequenceSensitive(t *testing.T) {
	a, b := []byte("aa"), []byte("bb")
	base := string(BatchDigest([][]byte{a, b}))
	if string(BatchDigest([][]byte{b, a})) == base {
		t.Error("digest ignores payload order")
	}
	// Length prefixes prevent concatenation collisions: ["aa","bb"] must
	// differ from ["aab","b"] and from the single payload "aabb".
	if string(BatchDigest([][]byte{[]byte("aab"), []byte("b")})) == base {
		t.Error("digest collides across payload boundaries")
	}
	if string(BatchDigest([][]byte{[]byte("aabb")})) == base {
		t.Error("digest collides with concatenation")
	}
	if string(BatchDigest([][]byte{a, b})) != base {
		t.Error("digest is not deterministic")
	}
	// The list form, the run's own and the Digester's are one digest: of the
	// length-prefixed payload section the run encodes.
	run := Run{}.Append(a).Append(b)
	d := NewDigester()
	d.Add(a)
	d.Add(b)
	if sum := run.Digest(); string(sum[:]) != base || string(d.AppendSum(nil)) != base {
		t.Error("the run's digest differs from the list form's")
	}
	d.Add(b)
	if sum := (Run{}.Append(b).Digest()); string(d.AppendSum(nil)) != string(sum[:]) {
		t.Error("a reused Digester carries its last run into the next")
	}
}

func TestMessageSizeReflectsSignatureOverhead(t *testing.T) {
	// The bandwidth shape of Fig 6 comes from signature bytes: a payload
	// with a 128-byte RSA signature must be ~108 bytes larger than one with
	// a 20-byte HMAC, which is ~20 larger than none.
	vals := datalog.Tuple{datalog.Prin("a"), datalog.Prin("b"), datalog.Int64(7)}
	none := len(EncodePayload(Payload{Pred: "path", Vals: vals}))
	hmac := len(EncodePayload(Payload{Pred: "path", Sig: make([]byte, 20), Vals: vals}))
	rsa := len(EncodePayload(Payload{Pred: "path", Sig: make([]byte, 128), Vals: vals}))
	// 108 signature bytes plus one extra varint length byte at 128.
	if hmac-none != 20 || rsa-hmac != 109 {
		t.Errorf("overhead deltas: hmac-none=%d rsa-hmac=%d", hmac-none, rsa-hmac)
	}
}
