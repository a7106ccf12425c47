package engine

import (
	"errors"
	"fmt"
	"testing"

	"secureblox/internal/datalog"
)

// channelProg is an inbound channel and what reads it: export rows arrive as
// transient facts; heard keeps each sender, got each payload from a trusted
// sender, and a row from a relayed sender is kept as it is.
const channelProg = `
	export(N, L, P) -> node(N), node(L), bytes(P).
	trusted(L) -> node(L).
	relayed(L) -> node(L).
	heard(L) -> node(L).
	got(P) -> bytes(P).
	heard(L) <- export(N, L, P).
	got(P) <- export(N, L, P), trusted(L).
	export(N, L, P) <- export(N, L, P), relayed(L).
`

var chanSelf, chanA, chanB, chanC = datalog.NodeV("10.0.0.9:1"), datalog.NodeV("10.0.0.1:1"), datalog.NodeV("10.0.0.2:1"), datalog.NodeV("10.0.0.3:1")

// inbound is the transient export of payload p from l.
func inbound(l datalog.Value, p string) Fact {
	return Fact{Pred: "export", Tuple: datalog.Tuple{chanSelf, l, datalog.BytesV([]byte(p))}, Transient: true}
}

// channelWorkspace runs channelProg with B trusted, C relayed, and self and
// A heard: every node address is interned before the first transient fact.
func channelWorkspace(t *testing.T) *Workspace {
	t.Helper()
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(channelProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Assert([]Fact{
		{Pred: "trusted", Tuple: datalog.Tuple{chanB}},
		{Pred: "relayed", Tuple: datalog.Tuple{chanC}},
		{Pred: "heard", Tuple: datalog.Tuple{chanSelf}},
		{Pred: "heard", Tuple: datalog.Tuple{chanA}},
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTransientFactLivesForItsTransaction: a transient fact is read by the
// rules of the transaction that asserts it and is gone when it commits — its
// row from the relation and the result, its text from the intern table —
// unless a rule derives the same row, which stays with its text, or a kept
// row holds its text, which stays as a copy.
func TestTransientFactLivesForItsTransaction(t *testing.T) {
	w := channelWorkspace(t)
	syms := w.Symbols()
	res, err := w.Assert([]Fact{inbound(chanA, "read only"), inbound(chanB, "kept by got"), inbound(chanC, "kept as a row")})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Inserted("export")); got != fmt.Sprint([]datalog.Tuple{{chanSelf, chanC, datalog.BytesV([]byte("kept as a row"))}}) {
		t.Errorf("the transaction lists %s as inserted exports, want the derived row alone", got)
	}
	if got := fmt.Sprint(w.Tuples("export")); got != fmt.Sprint([]datalog.Tuple{{chanSelf, chanC, datalog.BytesV([]byte("kept as a row"))}}) {
		t.Errorf("export holds %s after the commit, want the derived row alone", got)
	}
	if w.Count("heard") != 4 || !w.Contains("got", datalog.Tuple{datalog.BytesV([]byte("kept by got"))}) {
		t.Errorf("the rules did not read the transient facts: heard %v, got %v", w.Tuples("heard"), w.Tuples("got"))
	}
	if _, ok := w.syms.lookup("read only"); ok {
		t.Error("a payload no row keeps is still interned")
	}
	if got := w.Symbols(); got != syms+2 {
		t.Errorf("the intern table went from %d to %d texts, want the two kept payloads more", syms, got)
	}

	// The dropped text's symbol number is the next text's, and the kept
	// texts read as they did.
	for i := range 100 {
		if _, err := w.Assert([]Fact{inbound(chanA, fmt.Sprint("passing ", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Symbols(); got != syms+2 {
		t.Errorf("100 more read-only payloads left %d texts, want %d", got, syms+2)
	}
	if !w.Contains("got", datalog.Tuple{datalog.BytesV([]byte("kept by got"))}) ||
		!w.Contains("export", datalog.Tuple{chanSelf, chanC, datalog.BytesV([]byte("kept as a row"))}) {
		t.Errorf("kept rows changed under later transactions: got %v, export %v", w.Tuples("got"), w.Tuples("export"))
	}
}

// TestTransientAndStoredFactOfOneTuple: asserted both with and without the
// mark, a fact is stored; asserted transient when the store holds it, it
// changes nothing.
func TestTransientAndStoredFactOfOneTuple(t *testing.T) {
	w := channelWorkspace(t)
	stored := Fact{Pred: "export", Tuple: inbound(chanA, "both").Tuple}
	if _, err := w.Assert([]Fact{inbound(chanA, "both"), stored}); err != nil {
		t.Fatal(err)
	}
	if !w.Contains("export", stored.Tuple) {
		t.Fatal("a fact asserted with and without the mark was dropped")
	}
	res, err := w.Assert([]Fact{inbound(chanA, "both")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Inserted("export")) != 0 || !w.Contains("export", stored.Tuple) {
		t.Errorf("re-asserting a stored fact transient changed the store: inserted %v, export %v", res.Inserted("export"), w.Tuples("export"))
	}
}

// TestRejectedTransientFactsRollBack: a transaction of transient facts that a
// constraint rejects leaves the store and the intern table as they were —
// the numbers of dropped texts it took free again, a text a rule had kept
// gone — and the next one reuses what it took.
func TestRejectedTransientFactsRollBack(t *testing.T) {
	prog, err := datalog.Parse(channelProg + `got(P) -> P != 0x726566757365.`) // "refuse"
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkspace(nil)
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Assert([]Fact{{Pred: "trusted", Tuple: datalog.Tuple{chanB}}, {Pred: "relayed", Tuple: datalog.Tuple{chanC}},
		{Pred: "heard", Tuple: datalog.Tuple{chanSelf}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Assert([]Fact{inbound(chanA, "dropped 1"), inbound(chanA, "dropped 2")}); err != nil {
		t.Fatal(err)
	}
	if len(w.syms.free) != 2 {
		t.Fatalf("two dropped payloads left %d free symbol numbers", len(w.syms.free))
	}
	want := storeSnapshot(t, w)
	var cv *ConstraintViolation
	if _, err := w.Assert([]Fact{inbound(chanC, "relayed then refused"), inbound(chanA, "new"), inbound(chanB, "refuse")}); !errors.As(err, &cv) {
		t.Fatalf("Assert returned %v, want a violation", err)
	}
	if got := storeSnapshot(t, w); got != want {
		t.Errorf("the rejected transaction left\n%s\nwant\n%s", got, want)
	}
	if _, err := w.Assert([]Fact{inbound(chanC, "relayed"), inbound(chanA, "read")}); err != nil {
		t.Fatal(err)
	}
	if w.Count("export") != 1 || w.Count("heard") != 3 || !w.Contains("export", inbound(chanC, "relayed").Tuple) {
		t.Errorf("after a rollback: export %v, heard %v", w.Tuples("export"), w.Tuples("heard"))
	}
}
