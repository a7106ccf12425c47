package wire

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

func TestJoinRoundTrip(t *testing.T) {
	cases := []Join{
		{Type: CtrlJoin, Cluster: "pv3", Members: []MemberInfo{
			{Principal: "p1", Addr: "127.0.0.1:7102", PubKey: []byte{1, 2, 3}},
		}},
		{Type: CtrlDirectory, Cluster: "c", Members: []MemberInfo{
			{Principal: "p0", Addr: "a:1", PubKey: bytes.Repeat([]byte{9}, 140)},
			{Principal: "p1", Addr: "b:2", PubKey: bytes.Repeat([]byte{7}, 140)},
			{Principal: "p2", Addr: "c:3"},
		}},
		{Type: CtrlReady, Cluster: "pv3"},
		{Type: CtrlGo, Cluster: "pv3"},
		{Type: CtrlEvict, Cluster: "pv3", Members: []MemberInfo{
			{Principal: "p4", Addr: "127.0.0.1:7104"},
		}},
	}
	for _, want := range cases {
		got, err := DecodeJoin(EncodeJoin(want))
		if err != nil {
			t.Fatalf("decode %v: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %v: got %+v want %+v", want.Type, got, want)
		}
	}
}

func TestJoinRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{0},                    // not a join type
		{byte(CtrlProbe)},      // probe is a Control, not a Join
		{byte(CtrlJoin)},       // truncated cluster
		{byte(CtrlGo), 2, 'x'}, // cluster length lies
		append(EncodeJoin(Join{Type: CtrlReady, Cluster: "c"}), 0xff), // trailing
		// the retired seed gossip of one newcomer, otherwise well formed
		EncodeJoin(Join{Type: 4, Cluster: "pv3", Members: []MemberInfo{{Principal: "p2", Addr: "127.0.0.1:7103"}}}),
	}
	for i, buf := range bad {
		if _, err := DecodeJoin(buf); err == nil {
			t.Fatalf("case %d: garbage %x decoded", i, buf)
		}
	}
	// A member count far beyond the buffer must be rejected before any
	// allocation trusts it.
	lying := []byte{byte(CtrlDirectory), 1, 'c', 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, err := DecodeJoin(lying); err == nil {
		t.Fatal("lying member count decoded")
	}
}

func TestJoinAndControlAreDisjoint(t *testing.T) {
	// A join record must not decode as a termination-detection control and
	// vice versa: the two protocols share the MsgControl channel.
	j := EncodeJoin(Join{Type: CtrlJoin, Cluster: "x", Members: []MemberInfo{{Principal: "p", Addr: "a:1"}}})
	if _, err := DecodeControl(j); err == nil {
		t.Fatal("join record decoded as control")
	}
	c := EncodeControl(Control{Type: CtrlProbe, Wave: 3})
	if _, err := DecodeJoin(c); err == nil {
		t.Fatal("control record decoded as join")
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

// TestLyingCountsAllocateInProportionToInput: every join member and every
// control peer entry takes at least three input bytes, so a decoder that
// trusts a claimed count up to the whole remaining buffer reserves three
// times the entries the input can hold before it fails. DecodeJoin must stay
// within FuzzDecodeJoin's bound of 32 bytes per input byte (a MemberInfo is
// 56 bytes) and DecodeControl within 16 (a PeerCount is 32 bytes).
func TestLyingCountsAllocateInProportionToInput(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rec    []byte
		decode func([]byte) error
		factor uint64
	}{
		{"join", lyingRecord(byte(CtrlJoin), 0), func(b []byte) error { _, err := DecodeJoin(b); return err }, 32},
		{"control", lyingRecord(byte(CtrlReport), 1, 0), func(b []byte) error { _, err := DecodeControl(b); return err }, 16},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(tc.rec)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a record claiming %d entries it does not hold decoded", tc.name, len(tc.rec))
		}
		if got, bound := after.TotalAlloc-before.TotalAlloc, tc.factor*uint64(len(tc.rec))+1<<16; got > bound {
			t.Errorf("%s: decoding %d bytes allocated %d, bound %d", tc.name, len(tc.rec), got, bound)
		}
	}
}
