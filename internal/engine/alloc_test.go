package engine

import (
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
	r := w.rules[0]
	delta := map[string][]datalog.Tuple{"e": w.Tuples("e")}
	next := map[string][]datalog.Tuple{}
	tx := w.begin()
	before := w.Count("tri")
	allocs := testing.AllocsPerRun(20, func() {
		if err := w.evalRuleDeltas(tx, r, delta, next); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || len(next) != 0 || w.Count("tri") != before {
		t.Errorf("re-deriving %d existing tuples: %.1f allocations per evaluation, %d new predicates (want 0, 0)",
			before, allocs, len(next))
	}
}

// TestInsertAllocationIsAmortised: a fresh insert into a relation with two
// secondary indexes pays only the amortised growth of slab and tables.
func TestInsertAllocationIsAmortised(t *testing.T) {
	const n = 10000
	tuples := make([]datalog.Tuple, n)
	for i := range tuples {
		tuples[i] = tup(int64(i), int64(i%97), int64(i%13))
	}
	allocs := testing.AllocsPerRun(3, func() {
		r := relOf(t, 3)
		r.EnsureIndex([]int{1})
		r.EnsureIndex([]int{0, 2})
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
// — the paper's network adversary can send as many as it likes — must not
// grow the heap: rollback returns relation rows, the undo log and the tuple
// blocks to where they were.
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
	reject := func(i int64) {
		batch := make([]Fact, 0, 20)
		for j := int64(0); j < 19; j++ {
			batch = append(batch, Fact{Pred: "in", Tuple: tup(i, j)})
		}
		batch = append(batch, Fact{Pred: "in", Tuple: tup(1000000+i, 0)})
		if _, err := w.Assert(batch); err == nil {
			t.Fatal("the batch must violate the constraint")
		}
	}
	reject(0) // warm up: undo log, delta maps and frames reach their working size
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	mark, before := w.blocks.cur, heap()
	for i := int64(1); i <= 1000; i++ {
		reject(i)
	}
	after := heap()
	if len(w.blocks.cur) != len(mark) || cap(w.blocks.cur) != cap(mark) {
		t.Errorf("tuple-block mark moved: %d/%d values, was %d/%d", len(w.blocks.cur), cap(w.blocks.cur), len(mark), cap(mark))
	}
	const block = maxTupleBlock * 32
	if after > before+block {
		t.Errorf("heap grew by %d bytes over 1000 rolled-back transactions, want at most one tuple block (%d)", after-before, block)
	}
	if w.Count("in") != 1 || w.Count("seen") != 1 || w.Count("echo") != 1 {
		t.Errorf("rolled-back transactions left tuples behind: in=%d seen=%d echo=%d", w.Count("in"), w.Count("seen"), w.Count("echo"))
	}
}
