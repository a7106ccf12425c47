package datalog

import "testing"

func hashSamples() []Value {
	return []Value{
		Int64(0), Int64(1), Int64(-1), Int64(1 << 40),
		String_(""), String_("a"), String_("ab"),
		Name("a"), NodeV("a"), Prin("a"), // same payload, different kinds
		Bool(true), Bool(false),
		BytesV(nil), BytesV([]byte{1, 2, 3}),
		Entity("pathvar", 1), Entity("pathvar", 2), Entity("other", 1),
	}
}

// TestValueHashEqualConsistent: a tuple's hash key is equal exactly when its
// values are.
func TestValueHashEqualConsistent(t *testing.T) {
	vals := hashSamples()
	for _, a := range vals {
		for _, b := range vals {
			ka := Tuple{a}.Key()
			kb := Tuple{b}.Key()
			if a.Equal(b) && ka != kb {
				t.Errorf("equal values %s and %s key differently", a, b)
			}
			// Distinct kinds with identical payloads must not collide (the
			// kind byte is encoded first) — a collision here would let a
			// string impersonate a principal in a keyed map.
			if !a.Equal(b) && ka == kb {
				t.Errorf("distinct values %s and %s collide", a, b)
			}
		}
	}
}

func TestHashBoundaryCases(t *testing.T) {
	// Concatenation ambiguity: ("ab","c") vs ("a","bc") must differ because
	// each value is length-framed in the key.
	a := Tuple{String_("ab"), String_("c")}
	b := Tuple{String_("a"), String_("bc")}
	if a.Key() == b.Key() {
		t.Error("string-boundary tuples collide")
	}
	// Entity type/id boundaries.
	if (Tuple{Entity("x", 1)}).Key() == (Tuple{Entity("x1", 0)}).Key() {
		t.Error("entity boundary collision")
	}
}
