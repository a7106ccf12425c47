package wire

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// roundTrips checks that every record survives Encode∘Decode, that every
// proper prefix of its encoding is rejected as short and a trailing byte as
// trailing: one layout, no optional tail.
func roundTrips(t *testing.T, cases []Control) {
	t.Helper()
	for _, c := range cases {
		enc := EncodeControl(c)
		got, err := DecodeControl(enc)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("control round trip: %+v -> %+v", c, got)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeControl(enc[:cut]); err == nil {
				t.Errorf("%+v cut to %d of %d bytes should be rejected", c, cut, len(enc))
			}
		}
		if _, err := DecodeControl(append(enc, 0)); err == nil {
			t.Errorf("%+v with a trailing byte should be rejected", c)
		}
	}
}

func TestControlRoundTrip(t *testing.T) {
	roundTrips(t, []Control{
		{Type: CtrlProbe, Wave: 7},
		{Type: CtrlReport, Wave: 0},
		{Type: CtrlReport, Wave: 1 << 40, Active: true},
		{Type: CtrlReport, Wave: 5, Peers: []PeerCount{
			{Addr: "10.0.0.1:7000", Sent: 6, Recv: 5},
			{Addr: "10.0.0.2:7000", Sent: 4, Recv: 3},
		}},
	})
	if _, err := DecodeControl([]byte{99, 0, 0, 0, 0, 0}); err == nil {
		t.Error("bad control type should be rejected")
	}
	if _, err := DecodeControl([]byte{byte(CtrlReport), 0, 0, 2, 0, 0}); err == nil {
		t.Error("an active byte other than 0 or 1 should be rejected")
	}
	if _, err := DecodeControl([]byte{byte(CtrlReport), 0, 2, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0}); err == nil {
		t.Error("lying peer count should be rejected")
	}
	// A control record rides inside a MsgControl message.
	got, err := ReadControl(ControlMessage("a:1", Control{Type: CtrlProbe, Wave: 3}))
	if err != nil || got.Type != CtrlProbe || got.Wave != 3 {
		t.Fatalf("control message round trip: %+v, %v", got, err)
	}
	if _, err := ReadControl(EncodeMessage(Message{Kind: MsgData, From: "a:1", Payloads: [][]byte{EncodeControl(got)}})); err == nil {
		t.Error("a data message read as a control record")
	}
}

// TestJoinRoundTrip: the barrier and eviction records take the same layout
// as probes and reports.
func TestJoinRoundTrip(t *testing.T) {
	roundTrips(t, []Control{
		{Type: CtrlJoin, Cluster: "pv3", Members: []MemberInfo{
			{Principal: "p1", Addr: "127.0.0.1:7102", PubKey: []byte{1, 2, 3}},
		}},
		{Type: CtrlDirectory, Cluster: "c", Members: []MemberInfo{
			{Principal: "p0", Addr: "a:1", PubKey: bytes.Repeat([]byte{9}, 140)},
			{Principal: "p1", Addr: "b:2", PubKey: bytes.Repeat([]byte{7}, 140)},
			{Principal: "p2", Addr: "c:3"},
		}},
		{Type: CtrlReady, Cluster: "pv3", Members: []MemberInfo{{Principal: "p1", Addr: "b:2"}}},
		{Type: CtrlGo, Cluster: "pv3"},
		{Type: CtrlLeave, Cluster: "pv3", Members: []MemberInfo{{Principal: "p1", Addr: "b:2"}}},
		{Type: CtrlBye, Cluster: "pv3"},
		{Type: CtrlEvict, Cluster: "pv3", Members: []MemberInfo{
			{Principal: "p4", Addr: "127.0.0.1:7104"},
		}},
	})
}

func TestJoinRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{0},                             // not a control type
		{byte(CtrlJoin)},                // truncated cluster
		{byte(CtrlGo), 2, 'x'},          // cluster length lies
		{byte(CtrlGo), 1, 'x', 0, 0, 0}, // no member count
		append(EncodeControl(Control{Type: CtrlReady, Cluster: "c"}), 0xff), // trailing
		// a member without a principal
		EncodeControl(Control{Type: CtrlEvict, Cluster: "pv3", Members: []MemberInfo{{Addr: "127.0.0.1:7103"}}}),
		// type 4 names nothing, however well formed the rest
		EncodeControl(Control{Type: 4, Cluster: "pv3", Members: []MemberInfo{{Principal: "p2", Addr: "127.0.0.1:7103"}}}),
	}
	for i, buf := range bad {
		if _, err := DecodeControl(buf); err == nil {
			t.Fatalf("case %d: garbage %x decoded", i, buf)
		}
	}
	// A member count far beyond the buffer must be rejected before any
	// allocation trusts it.
	lying := []byte{byte(CtrlDirectory), 1, 'c', 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, err := DecodeControl(lying); err == nil {
		t.Fatal("lying member count decoded")
	}
}

// lyingRecord is a 60 000-byte record of the given header whose claimed entry
// count is every byte left after it, padded with 'a' (which reads as length
// 97, so only a few entries are really there).
func lyingRecord(header ...byte) []byte {
	const size = 60000
	rest := size - len(header) - 3 // the count takes three bytes
	rec := appendUvarint(header, uint64(rest))
	return append(rec, bytes.Repeat([]byte("a"), rest)...)
}

// TestLyingCountsAllocateInProportionToInput: every peer entry takes at least
// three input bytes and every member entry four, so a decoder that trusts a
// claimed count up to the whole remaining buffer reserves several times the
// entries the input can hold before it fails. DecodeControl must stay within
// FuzzDecodeControl's bound of 16 bytes per input byte (a PeerCount is 32
// bytes, a MemberInfo 56) on a lying peer count and on a lying member count.
func TestLyingCountsAllocateInProportionToInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  []byte
	}{
		{"peers", lyingRecord(byte(CtrlReport), 0, 1, 0)},
		{"members", lyingRecord(byte(CtrlJoin), 0, 0, 0, 0)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeControl(tc.rec)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a record claiming %d entries it does not hold decoded", tc.name, len(tc.rec))
		}
		if got, bound := after.TotalAlloc-before.TotalAlloc, 16*uint64(len(tc.rec))+1<<16; got > bound {
			t.Errorf("%s: decoding %d bytes allocated %d, bound %d", tc.name, len(tc.rec), got, bound)
		}
	}
}
