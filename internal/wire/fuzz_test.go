package wire

import (
	"bytes"
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
