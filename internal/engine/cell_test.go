package engine

import (
	"errors"
	"reflect"
	"strings"
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

// mustCells encodes t in syms, interning.
func mustCells(syms *symtab, t datalog.Tuple) []cell {
	row, err := syms.cells(nil, t)
	if err != nil {
		panic(err)
	}
	return row
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
			ca, cb := mustCells(&syms, datalog.Tuple{a})[0], mustCells(&syms, datalog.Tuple{b})[0]
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
	ab := mustCells(&syms, datalog.Tuple{datalog.String_("ab"), datalog.String_("c")})
	bc := mustCells(&syms, datalog.Tuple{datalog.String_("a"), datalog.String_("bc")})
	if hashCells(ab) == hashCells(bc) {
		t.Error("string-boundary tuples collide")
	}
}

// TestSymbolLimitRefusesTheNextSymbol: a cell holds its kind in the four bits
// above a 28-bit symbol, so every kind keeps the workspace's last symbol and
// any bits apart, and numbering one symbol more is refused with an error that
// names the limit, never spilled into the kind. (Through newSym, which intern
// numbers every symbol with: interning 2^28 texts would take gigabytes.)
func TestSymbolLimitRefusesTheNextSymbol(t *testing.T) {
	const bits = 1<<63 | 1<<32 | 1
	last, err := newSym(1<<symBits - 1)
	if err != nil {
		t.Fatalf("numbering symbol 2^28 - 1: %v", err)
	}
	for k := datalog.KindInvalid; k <= datalog.KindEntity; k++ {
		if c := mkCell(k, last, bits); c.kind() != k || c.sym() != last || c.bits() != bits {
			t.Errorf("mkCell(%s, %d, %#x) reads back as %s, %d, %#x", k, last, uint64(bits), c.kind(), c.sym(), c.bits())
		}
	}
	if _, err := newSym(1 << symBits); err == nil || !strings.Contains(err.Error(), "268435456") {
		t.Errorf("numbering symbol 2^28: error %v, want one naming the limit of 268435456", err)
	}
}

// TestSymbolLimitRollsBackTheTransaction: a transaction that would intern a
// text past the limit — a fact's, or one a rule derives — is a violation: it
// rolls back whole, and the workspace goes on committing transactions that
// intern no more. (symLimit is lowered to the workspace's symbols plus one, so
// the test interns a few texts, not 2^28.)
func TestSymbolLimitRollsBackTheTransaction(t *testing.T) {
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(`
		tag(X, T) -> int(X), string(T).
		label(X, S) <- tag(X, T), S = T + "!".
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Assert([]Fact{{Pred: "tag", Tuple: datalog.Tuple{datalog.Int64(1), datalog.String_("a")}}}); err != nil {
		t.Fatal(err)
	}
	defer func(limit int) { symLimit = limit }(symLimit)
	symLimit = len(w.syms.spans) + 1
	want := storeSnapshot(t, w)
	for name, facts := range map[string][]Fact{
		"two new fact texts": {{Pred: "tag", Tuple: datalog.Tuple{datalog.Int64(2), datalog.String_("b")}},
			{Pred: "tag", Tuple: datalog.Tuple{datalog.Int64(3), datalog.String_("c")}}},
		"a new fact text and the text it derives": {{Pred: "tag", Tuple: datalog.Tuple{datalog.Int64(2), datalog.String_("b")}}},
	} {
		if _, err := w.Assert(facts); !errors.Is(err, errSymbolLimit) {
			t.Errorf("%s: Assert returned %v, want %v", name, err, errSymbolLimit)
		}
		if got := storeSnapshot(t, w); got != want {
			t.Errorf("%s: the refused transaction left\n%s\nwant\n%s", name, got, want)
		}
	}
	if _, err := w.Assert([]Fact{{Pred: "tag", Tuple: datalog.Tuple{datalog.Int64(2), datalog.String_("a")}}}); err != nil {
		t.Errorf("a transaction interning nothing new after a refused one: %v", err)
	}
	if got := w.Count("label"); got != 2 {
		t.Errorf("label holds %d rows, want 2", got)
	}
}

// TestCellHashVariants: a projection hashes as the projected cells do, in the
// projection's column order, and the empty projection as the empty key.
func TestCellHashVariants(t *testing.T) {
	var syms symtab
	row := mustCells(&syms, datalog.Tuple{datalog.Int64(1), datalog.String_("x"), datalog.Prin("p")})
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
		"index link page":     reflect.TypeOf(x.links).Elem(),
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
