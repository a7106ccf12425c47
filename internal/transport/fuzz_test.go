package transport

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzDecodeFrame: decodeFrame never panics on any datagram, and what it
// accepts survives encodeFrame∘decodeFrame — the re-encoded frame, framed in
// place in a buffer with room and in a copy of one without, decodes to the
// same type, sequence number and payload.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range [][]byte{
		encodeFrame(nil, frameData, 0),
		encodeFrame([]byte("payload"), frameData, 1),
		encodeFrame(bytes.Repeat([]byte{0xa5}, 300), frameData, 1<<40),
		encodeFrame(nil, frameAck, 7),
		encodeFrame(nil, frameAck, ^uint64(0)),
		{0x80, 0, 0, 0, 0, frameData},
		{1, 2, 3, 4, 5, 6, 'X'},
		{frameAck},
	} {
		f.Add(fr)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, seq, payload, ok := decodeFrame(data)
		if !ok {
			return
		}
		roomy := append(make([]byte, 0, len(payload)+FrameRoom), payload...)
		for _, frame := range [][]byte{encodeFrame(payload[:len(payload):len(payload)], typ, seq), encodeFrame(roomy, typ, seq)} {
			typ2, seq2, payload2, ok := decodeFrame(frame)
			if !ok || typ2 != typ || seq2 != seq || !bytes.Equal(payload2, payload) {
				t.Fatalf("frame %x decoded to (%c, %d, %x); its re-encoding to (%c, %d, %x, ok=%v)",
					data, typ, seq, payload, typ2, seq2, payload2, ok)
			}
		}
		if !bytes.Equal(data[:len(payload)], payload) {
			t.Fatalf("frame %x: the payload is not the frame's head", data)
		}
	})
}

// FuzzParseChaosPlan: ParseChaosPlan never panics, and a plan it accepts is
// inert until Start — whatever its links, partitions and crashes say, every
// datagram between the principals it names, or addresses it cannot name,
// goes out untouched.
func FuzzParseChaosPlan(f *testing.F) {
	for _, plan := range []string{
		`{}`,
		`{"seed": 7, "links": [{"from": "*", "to": "*", "delay_ms": 150}]}`,
		`{"seed": 7, "crashes": [{"node": "p2", "at_ms": 0}]}`,
		`{"seed": 11,
			"links": [{"from": "*", "to": "*", "drop": 0.15, "dup": 0.1, "garble": 0.05, "reorder": 0.1, "delay_ms": 1, "jitter_ms": 2}],
			"partitions": [{"a": ["p0"], "b": ["p1", "p2"], "at_ms": 0, "heal_ms": 1000}]}`,
		`{"links": [{"from": "*", "to": "*", "drop": 1}]}`,
		`{"seed": 99, "links": [{"from": "p0", "to": "p1", "drop": 0.5}]}`,
		`{"crashes": [{"node": "p1", "at_ms": 0, "hang_ms": 200}, {"node": "p2", "at_ms": 50}]}`,
		`{"partitions": [{"a": ["p0"], "b": ["p1"], "at_ms": 100, "heal_ms": 50}]}`,
	} {
		f.Add([]byte(plan))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := ParseChaosPlan(data)
		if err != nil {
			return
		}
		names := []string{"unnamed"}
		for _, l := range plan.Links {
			names = append(names, l.From, l.To)
		}
		for _, pt := range plan.Partitions {
			names = append(append(names, pt.A...), pt.B...)
		}
		for _, cr := range plan.Crashes {
			names = append(names, cr.Node)
		}
		byAddr := make(map[string]string)
		for i, p := range names[:min(len(names), 16)] {
			byAddr[fmt.Sprintf("10.0.0.%d:7000", i)] = p
		}
		e := NewChaosEngine(plan)
		e.Resolve(byAddr)
		for from := range byAddr {
			for to := range byAddr {
				if act := e.judge(from, to); act != (chaosAction{}) {
					t.Fatalf("before Start, %s -> %s is judged %+v", byAddr[from], byAddr[to], act)
				}
			}
		}
	})
}
