package engine

import (
	"reflect"
	"testing"

	"secureblox/internal/datalog"
)

func hashSamples() []datalog.Value {
	return []datalog.Value{
		datalog.Int64(0), datalog.Int64(1), datalog.Int64(-1), datalog.Int64(1 << 40),
		datalog.String_(""), datalog.String_("a"), datalog.String_("ab"),
		datalog.Name("a"), datalog.NodeV("a"), datalog.Prin("a"), // same text, different kinds
		datalog.Bool(true), datalog.Bool(false),
		datalog.BytesV(nil), datalog.BytesV([]byte{1, 2, 3}),
		datalog.Entity("pathvar", 1), datalog.Entity("pathvar", 2), datalog.Entity("other", 1),
		datalog.Entity("x", 1), datalog.Entity("x1", 0),
	}
}

// TestCellHashEqualConsistent: cells are equal exactly when their values are,
// equal cells hash equally, and the samples — the same text under different
// kinds, entity type/id and string boundaries among them — do not collide: a
// collision would let a string impersonate a principal in hashed storage.
func TestCellHashEqualConsistent(t *testing.T) {
	var syms symtab
	vals := hashSamples()
	for _, a := range vals {
		for _, b := range vals {
			ca, cb := syms.cell(a), syms.cell(b)
			if a.Equal(b) != (ca == cb) {
				t.Errorf("%s and %s: values equal %v, cells equal %v", a, b, a.Equal(b), ca == cb)
			}
			ha, hb := hashCells([]cell{ca}), hashCells([]cell{cb})
			if a.Equal(b) != (ha == hb) {
				t.Errorf("%s and %s: values equal %v, hashes equal %v", a, b, a.Equal(b), ha == hb)
			}
			if v := syms.value(ca); !v.Equal(a) {
				t.Errorf("%s comes back as %s", a, v)
			}
		}
	}
	ab := syms.cells(nil, datalog.Tuple{datalog.String_("ab"), datalog.String_("c")})
	bc := syms.cells(nil, datalog.Tuple{datalog.String_("a"), datalog.String_("bc")})
	if hashCells(ab) == hashCells(bc) {
		t.Error("string-boundary tuples collide")
	}
}

// TestCellHashVariants: a projection hashes as the projected cells do, in the
// projection's column order, and the empty projection as the empty key.
func TestCellHashVariants(t *testing.T) {
	var syms symtab
	row := syms.cells(nil, datalog.Tuple{datalog.Int64(1), datalog.String_("x"), datalog.Prin("p")})
	if hashCols(row, []int{0, 1, 2}) != hashCells(row) {
		t.Error("the whole-row projection must hash as the row")
	}
	if hashCols(row, []int{0, 2}) != hashCells([]cell{row[0], row[2]}) {
		t.Error("a projection must hash as its projected cells")
	}
	if hashCols(row, []int{2, 0}) != hashCells([]cell{row[2], row[0]}) || hashCols(row, []int{2, 0}) == hashCols(row, []int{0, 2}) {
		t.Error("a projection's hash must follow its column order")
	}
	if hashCols(row, nil) != hashCells(nil) {
		t.Error("empty hashes must agree")
	}
}

// hasPointers reports whether values of type t hold anything the collector
// follows.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestStoreHoldsNoPointers: what the store keeps per stored value — cells in
// relation pages, index entries, the intern table's spans and arena bytes —
// and the frame slots and probe keys evaluation binds are all memory the
// collector never scans.
func TestStoreHoldsNoPointers(t *testing.T) {
	var r Relation
	var x hashIndex
	var s symtab
	var f frame
	for what, typ := range map[string]reflect.Type{
		"cell":                reflect.TypeOf(cell{}),
		"relation page":       reflect.TypeOf(r.pages).Elem(),
		"index entry":         reflect.TypeOf(x.ents).Elem(),
		"symbol span":         reflect.TypeOf(s.spans).Elem(),
		"arena page":          reflect.TypeOf(s.pages).Elem(),
		"frame slot":          reflect.TypeOf(f.slots).Elem(),
		"index bucket":        reflect.TypeOf(x.heads).Elem(),
		"row flags and lists": reflect.TypeOf(r.flags).Elem(),
	} {
		if typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if hasPointers(typ) {
			t.Errorf("%s (%s) holds pointers", what, typ)
		}
	}
}
