package wire

import (
	"bytes"
	"reflect"
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
