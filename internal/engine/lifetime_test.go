package engine

import (
	"fmt"
	"testing"

	"secureblox/internal/datalog"
)

// tagRegistry registers tag(X, T): T is the text "tag X", padded with dots to
// width bytes, written into one buffer that every call reuses, as serialize
// reuses its buffer.
func tagRegistry(t *testing.T, width int) *UDFRegistry {
	t.Helper()
	var buf []byte
	reg := NewUDFRegistry()
	if err := reg.Register(&FuncUDF{FName: "tag", InArity: 1, OutArity: 1,
		Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
			buf = appendTag(buf[:0], in[0].Int, width)
			return datalog.OwnedBytes(buf), true, nil
		}}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// appendTag appends the text tag computes for x to b.
func appendTag(b []byte, x int64, width int) []byte {
	b = fmt.Appendf(b, "tag %d", x)
	for n := len(b); n < width; n++ {
		b = append(b, '.')
	}
	return b
}

// tagText is the text tag computes for x.
func tagText(x int64, width int) string { return string(appendTag(nil, x, width)) }

// TestComputedTextOnlyComparedAllocatesNothing: a UDF result that no stored
// row names is the transaction's — its symbol number is the next
// transaction's, its bytes are on pages the next transaction reuses — so a
// rule that only compares it leaves the intern table as it found it and
// allocates nothing.
func TestComputedTextOnlyComparedAllocatesNothing(t *testing.T) {
	w := installed(t, tagRegistry(t, 0), `
		in(X) -> int(X).
		seen(N) <- in(X), tag(X, T), T != 0x6e6f6e65, here[]=N.
		here[]=7.
	`)
	facts := []Fact{{Pred: "in", Tuple: datalog.Tuple{datalog.Int64(0)}, Transient: true}}
	if _, err := w.Assert(facts); err != nil {
		t.Fatal(err)
	}
	syms, x := w.Symbols(), int64(0)
	if allocs := testing.AllocsPerRun(200, func() {
		x++
		facts[0].Tuple[0] = datalog.Int64(x)
		if _, err := w.Assert(facts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a transaction whose computed text is only compared: %.1f allocations, want 0", allocs)
	}
	if got := w.Symbols(); got != syms {
		t.Errorf("%d transactions took the intern table from %d to %d texts", x, syms, got)
	}
	if _, ok := w.syms.lookup(tagText(x, 0)); ok || w.Count("seen") != 1 {
		t.Errorf("the last result is still interned (%v), or seen holds %v", ok, w.Tuples("seen"))
	}
}

// TestComputedTextOfAConcatenationOnlyComparedGoes: a string + result that
// is only compared leaves no symbol behind; one the table knows is a symbol
// the transaction takes nothing for.
func TestComputedTextOfAConcatenationOnlyComparedGoes(t *testing.T) {
	w := installed(t, nil, `
		greeted(X) <- name(X), G = X + "!", G != "nobody!".
	`)
	syms := w.Symbols()
	assertFacts(t, w, `name("ann"). name("nobody").`)
	if got := w.Symbols(); got != syms+2 {
		t.Errorf("two names took the intern table from %d to %d texts, want %d", syms, got, syms+2)
	}
	if _, ok := w.syms.lookup("ann!"); ok {
		t.Error(`"ann!" is still interned`)
	}
	if w.Count("greeted") != 1 || !w.Contains("greeted", datalog.Tuple{datalog.String_("ann")}) {
		t.Errorf("greeted holds %v, want ann", w.Tuples("greeted"))
	}
}

// TestComputedTextAStoredRowKeepsReadsBack: computed text a stored row names
// is copied out of the stack when the row is stored, and the stack gives its
// bytes back at once, so a transaction that stores many such texts needs one
// page; the rows — each naming two results of one UDF, which reuses its
// buffer — read back intact after later transactions have refilled that page
// with text that is only compared.
func TestComputedTextAStoredRowKeepsReadsBack(t *testing.T) {
	const n, width = 200, 64
	w := installed(t, tagRegistry(t, width), `
		in(X) -> int(X).
		probe(X) -> int(X).
		stamp(X, T, U) <- in(X), tag(X, T), Y = X + 1000, tag(Y, U).
		seen(N) <- probe(X), tag(X, T), T != 0x6e6f6e65, here[]=N.
		here[]=7.
	`)
	var facts []Fact
	for x := range int64(n) {
		facts = append(facts, Fact{Pred: "in", Tuple: datalog.Tuple{datalog.Int64(x)}, Transient: true})
	}
	if _, err := w.Assert(facts); err != nil {
		t.Fatal(err)
	}
	if len(w.syms.stack) != 1 {
		t.Errorf("storing %d computed texts of %d bytes took %d stack pages, want 1", 2*n, width, len(w.syms.stack))
	}
	for i := range facts {
		facts[i].Pred = "probe"
		facts[i].Tuple[0] = datalog.Int64(int64(n + i))
	}
	for range 3 {
		if _, err := w.Assert(facts); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count("stamp") != n {
		t.Fatalf("stamp holds %d rows, want %d", w.Count("stamp"), n)
	}
	for x := range int64(n) {
		want := datalog.Tuple{datalog.Int64(x), datalog.BytesV([]byte(tagText(x, width))), datalog.BytesV([]byte(tagText(x+1000, width)))}
		if !w.Contains("stamp", want) {
			t.Fatalf("stamp lacks %v after later transactions: %v", want, w.Tuples("stamp")[:3])
		}
	}
}

// TestComputedTextOfBindAndRetractGoes: Bind and Retract end as a commit does,
// so a UDF result their evaluation computes and no row keeps is gone after
// each.
func TestComputedTextOfBindAndRetractGoes(t *testing.T) {
	w := installed(t, tagRegistry(t, 0), `
		seen(N) <- in(X), tag(X, T), T != 0x6e6f6e65, here[]=N.
		here[]=7.
		in(1). in(2).
	`)
	syms := w.Symbols()
	for _, x := range []int64{1, 2} {
		if _, ok := w.syms.lookup(tagText(x, 0)); ok {
			t.Errorf("Bind left %q interned", tagText(x, 0))
		}
	}
	if err := w.Retract([]Fact{{Pred: "in", Tuple: datalog.Tuple{datalog.Int64(1)}}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.syms.lookup(tagText(2, 0)); ok || w.Symbols() != syms {
		t.Errorf("Retract left %q interned (%v), or the table went from %d to %d texts", tagText(2, 0), ok, syms, w.Symbols())
	}
	if w.Count("seen") != 1 || w.Count("in") != 1 {
		t.Errorf("after Retract: seen %v, in %v", w.Tuples("seen"), w.Tuples("in"))
	}
}
