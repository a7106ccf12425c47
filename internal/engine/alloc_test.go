package engine

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"secureblox/internal/datalog"
)

// The storage layer's allocation budget, so the allocator and the collector
// cannot quietly move back into the join path.

// TestDuplicateDerivationAllocatesNothing: a delta evaluation over a 3-way
// join — partial probes, a fully bound membership step, head construction,
// the duplicate check — whose derivations all exist already is allocation-free.
func TestDuplicateDerivationAllocatesNothing(t *testing.T) {
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(`tri(X, Y, Z) <- e(X, Y), e(Y, Z), e(Z, X), ok(X, Y, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	// A 7-cycle with chords: steps of 1, 1 and 5 close a triangle, in any order.
	var facts []Fact
	const n = 7
	for i := int64(0); i < n; i++ {
		facts = append(facts,
			Fact{Pred: "e", Tuple: tup(i, (i+1)%n)}, Fact{Pred: "e", Tuple: tup(i, (i+5)%n)},
			Fact{Pred: "ok", Tuple: tup(i, (i+1)%n, (i+2)%n)}, Fact{Pred: "ok", Tuple: tup(i, (i+1)%n, (i+6)%n)})
	}
	if _, err := w.Assert(facts); err != nil {
		t.Fatal(err)
	}
	if w.Count("tri") == 0 {
		t.Fatal("fixture derives nothing: the test would prove nothing")
	}
	// The whole of e as this round's delta.
	r, e := w.rules[0], w.rels["e"]
	tx := w.begin()
	for id := range e.flags {
		e.ins = append(e.ins, uint32(id))
	}
	e.hi = len(e.ins)
	before := w.Count("tri")
	allocs := testing.AllocsPerRun(20, func() {
		if err := w.evalRuleDeltas(tx, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || len(w.dirty) != 0 || w.Count("tri") != before {
		t.Errorf("re-deriving %d existing tuples: %.1f allocations per evaluation, %d relations inserted into (want 0, 0)",
			before, allocs, len(w.dirty))
	}
}

// TestInsertAllocationIsAmortised: a fresh insert into a relation with two
// secondary indexes pays only the amortised growth of pages and tables.
func TestInsertAllocationIsAmortised(t *testing.T) {
	const n = 10000
	tuples := make([]datalog.Tuple, n)
	for i := range tuples {
		tuples[i] = tup(int64(i), int64(i%97), int64(i%13))
	}
	allocs := testing.AllocsPerRun(3, func() {
		r := relOf(t, 3)
		r.ensureIndex([]int{1})
		r.ensureIndex([]int{0, 2})
		for _, tp := range tuples {
			if r.Insert(tp, false) != InsertedNew {
				t.Fatal("fixture tuples must be distinct")
			}
		}
	})
	if perInsert := allocs / n; perInsert >= 0.25 {
		t.Errorf("%.3f allocations per insert, want < 0.25", perInsert)
	}
}

// TestRolledBackAssertsGiveTheirSpaceBack: a stream of rejected transactions
// — the paper's network adversary can send as many as it likes, each with
// text the workspace has never seen — must not grow the heap: rollback returns
// relation rows, the undo log and the intern table to where they were.
func TestRolledBackAssertsGiveTheirSpaceBack(t *testing.T) {
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(`
		seen(X, Y) <- in(X, Y).
		echo(Y, X, X, Y) <- seen(X, Y).
		in(X, Y) -> X < 1000000.
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Assert([]Fact{{Pred: "in", Tuple: tup(1, 2)}}); err != nil {
		t.Fatal(err)
	}
	batches := make([][]Fact, 1001)
	for i := range batches {
		for j := int64(0); j < 19; j++ {
			batches[i] = append(batches[i], Fact{Pred: "in", Tuple: datalog.Tuple{datalog.Int64(int64(i)), datalog.String_(fmt.Sprintf("y%d-%d", i, j))}})
		}
		batches[i] = append(batches[i], Fact{Pred: "in", Tuple: tup(1000000+int64(i), 0)})
	}
	reject := func(i int64) {
		if _, err := w.Assert(batches[i]); err == nil {
			t.Fatal("the batch must violate the constraint")
		}
	}
	reject(0) // warm up: undo log, row lists and frames reach their working size
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	mark, before := w.syms.mark(), heap()
	for i := int64(1); i <= 1000; i++ {
		reject(i)
	}
	after := heap()
	if got := w.syms.mark(); got != mark {
		t.Errorf("intern table moved: %+v, was %+v", got, mark)
	}
	if after > before+maxArenaPage {
		t.Errorf("heap grew by %d bytes over 1000 rolled-back transactions, want at most one arena page (%d)", after-before, maxArenaPage)
	}
	if w.Count("in") != 1 || w.Count("seen") != 1 || w.Count("echo") != 1 {
		t.Errorf("rolled-back transactions left tuples behind: in=%d seen=%d echo=%d", w.Count("in"), w.Count("seen"), w.Count("echo"))
	}
}

// chainWorkspace installs the shape of the generated export policy — a said
// fact, its signature from a UDF, the export tuple joining both with a
// singleton — behind one copying rule, and asserts warm facts in(0..warm).
func chainWorkspace(t *testing.T, warm int64) *Workspace {
	t.Helper()
	reg := NewUDFRegistry()
	if err := reg.Register(&FuncUDF{FName: "stamp", InArity: 1, OutArity: 1,
		Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
			return datalog.Int64(in[0].Int ^ 0x5a5a), true, nil
		}}); err != nil {
		t.Fatal(err)
	}
	w := NewWorkspace(reg)
	prog, err := datalog.Parse(`
		says(X, Y) <- in(X, Y).
		sig(X, Y, S) <- says(X, Y), stamp(X, S).
		export(N, X, S) <- says(X, Y), sig(X, Y, S), here[]=N.
		here[]=7.
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Assert(inFacts(0, warm)); err != nil {
		t.Fatal(err)
	}
	return w
}

func inFacts(from, to int64) []Fact {
	facts := make([]Fact, 0, to-from)
	for i := from; i < to; i++ {
		facts = append(facts, Fact{Pred: "in", Tuple: tup(i, i%7)})
	}
	return facts
}

// TestReassertingKnownFactsAllocatesNothing: a transaction that changes
// nothing — every fact a duplicate, as when a peer re-sends what it sent —
// costs no allocation at all: no transaction record, no delta, no result.
func TestReassertingKnownFactsAllocatesNothing(t *testing.T) {
	w := chainWorkspace(t, 500)
	known := inFacts(100, 300)
	allocs := testing.AllocsPerRun(20, func() {
		if res, err := w.Assert(known); err != nil || len(res.Inserted("export")) != 0 {
			t.Fatalf("re-asserting known facts: %v, %v", res.Inserted("export"), err)
		}
	})
	if allocs != 0 {
		t.Errorf("re-asserting %d known facts: %.1f allocations, want 0", len(known), allocs)
	}
}

// TestNewFactsAllocateTheirTuples: k new facts through the three-rule chain
// make 4k tuples, and what is allocated for them is their storage — pages of
// cells, a page at a time, and index tables and row lists grown geometrically
// — not something per tuple. A page is never reallocated, so the count per
// tuple is the same at k = 100 and k = 1 000: measured 0.010 and 0.009, under
// a ceiling of 0.015 (the ceiling was 0.02 when tuples were value slices in
// growing blocks; with deltas as a map of tuple slices and a UDF result slice
// per call the same program paid 0.9 and 0.8).
func TestNewFactsAllocateTheirTuples(t *testing.T) {
	const perTuple = 0.015
	for _, k := range []int64{100, 1000} {
		w := chainWorkspace(t, 4000)
		next := int64(4000)
		var batches [][]Fact // built outside the measurement: the caller's tuples are the caller's
		for i := 0; i < 4; i++ {
			batches = append(batches, inFacts(next, next+k))
			next += k
		}
		run := 0
		allocs := testing.AllocsPerRun(len(batches)-1, func() {
			if _, err := w.Assert(batches[run]); err != nil {
				t.Fatal(err)
			}
			run++
		})
		if got := w.Count("export"); got != int(next) {
			t.Fatalf("k=%d: %d export tuples, want %d", k, got, next)
		}
		if per := allocs / float64(4*k); per > perTuple {
			t.Errorf("k=%d: %.0f allocations for %d new tuples: %.4f each, want at most %.3f", k, allocs, 4*k, per, perTuple)
		}
	}
}

// TestFuncUDFAllocatesOnlyWhatItReturns: the adapter adds nothing to what the
// wrapped function allocates — no argument copy, no result slice — whether the
// output position is free or a filter.
func TestFuncUDFAllocatesOnlyWhatItReturns(t *testing.T) {
	u := &FuncUDF{FName: "tag", InArity: 1, OutArity: 1,
		Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
			b := make([]byte, 24)
			b[0] = byte(in[0].Int)
			return datalog.OwnedBytes(b), true, nil
		}}
	args, bound := []datalog.Value{datalog.Int64(3), {}}, []bool{true, false}
	if allocs := testing.AllocsPerRun(50, func() {
		args[1] = datalog.Value{}
		if ok, err := u.Eval("", args, bound); !ok || err != nil || len(args[1].Str) != 24 {
			t.Fatalf("tag(3, _) = %v, %v, %v", args[1], ok, err)
		}
	}); allocs != 1 {
		t.Errorf("a call returning one 24-byte value: %.1f allocations, want 1", allocs)
	}
	want := args[1]
	bound[1] = true
	if ok, _ := u.Eval("", args, bound); !ok || !args[1].Equal(want) {
		t.Error("a bound output equal to the result must pass, and stay as it was")
	}
	args[1] = datalog.Int64(9)
	if ok, _ := u.Eval("", args, bound); ok || !args[1].Equal(datalog.Int64(9)) {
		t.Error("a bound output different from the result must fail, and stay as it was")
	}
}

// TestInboundExportCopiesItsPayloadOnce: an inbound export — a datagram's
// payload asserted as a fact — costs the engine one copy of the payload into
// the intern table's arena, and almost nothing beyond it: the row's cells, its
// index entries and the symbol's span come a page or a doubling at a time.
func TestInboundExportCopiesItsPayloadOnce(t *testing.T) {
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(`export(N, L, P) -> node(N), node(L), bytes(P).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	const n, size = 1000, 1000
	batches := make([][]Fact, n) // built outside the measurement, as the transport builds them
	for i := range batches {
		p := make([]byte, size)
		binary.BigEndian.PutUint32(p, uint32(i))
		batches[i] = []Fact{{Pred: "export", Tuple: datalog.Tuple{
			datalog.NodeV("10.0.0.1:1"), datalog.NodeV("10.0.0.2:1"), datalog.OwnedBytes(p)}}}
	}
	if _, err := w.Assert(batches[0]); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, b := range batches[1:] {
		if _, err := w.Assert(b); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	perFact := float64(m1.TotalAlloc-m0.TotalAlloc) / (n - 1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / (n - 1)
	if perFact < size || perFact > size*5/4 || allocs > 0.15 {
		t.Errorf("an inbound export of a %d-byte payload costs %.0f bytes in %.2f allocations, want one copy (%d to %d bytes) in under 0.15",
			size, perFact, allocs, size, size*5/4)
	}
	if w.Count("export") != n {
		t.Fatalf("%d exports stored, want %d", w.Count("export"), n)
	}
}
