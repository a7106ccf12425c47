package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"secureblox/internal/datalog"
)

func relOf(t *testing.T, arity int) *Relation {
	t.Helper()
	return newRelation(&Schema{Name: "t", Arity: arity, KeyArity: -1,
		ArgTypes: make([]string, arity)}, &symtab{})
}

// cellsOf encodes t in r's intern table.
func cellsOf(r *Relation, t datalog.Tuple) []cell { return r.syms.cells(nil, t) }

func tup(vals ...int64) datalog.Tuple {
	out := make(datalog.Tuple, len(vals))
	for i, v := range vals {
		out[i] = datalog.Int64(v)
	}
	return out
}

func TestRelationInsertDeleteContains(t *testing.T) {
	r := relOf(t, 2)
	if r.Insert(tup(1, 2), true) != InsertedNew {
		t.Fatal("first insert not new")
	}
	if r.Insert(tup(1, 2), false) != InsertedDup {
		t.Fatal("second insert not dup")
	}
	if !r.Contains(tup(1, 2)) || r.Contains(tup(2, 1)) {
		t.Fatal("Contains wrong")
	}
	if r.derived(cellsOf(r, tup(1, 2))) >= 0 {
		t.Fatal("base marker lost")
	}
	if !r.Delete(tup(1, 2)) || r.Delete(tup(1, 2)) {
		t.Fatal("Delete wrong")
	}
	if r.Len() != 0 || r.Contains(tup(1, 2)) {
		t.Fatal("tuple survived delete")
	}
}

func TestRelationLookup(t *testing.T) {
	r := relOf(t, 3)
	stored := tup(1, 2, 3)
	r.Insert(stored, false)
	id := r.rowOf(cellsOf(r, tup(1, 2, 3)))
	if id < 0 || !r.syms.tuple(r.row(uint32(id))).Equal(stored) {
		t.Fatal("the row found must hold the stored tuple")
	}
	if r.rowOf(cellsOf(r, tup(1, 2, 4))) >= 0 {
		t.Fatal("lookup false positive")
	}
	// A shorter value sequence may hash differently or equal — either way it
	// must not match a longer stored tuple.
	if r.rowOf(cellsOf(r, tup(1, 2))) >= 0 || r.Contains(tup(1, 2)) {
		t.Fatal("arity-mismatched lookup")
	}
}

func probeAll(r *Relation, idx *hashIndex, vals ...datalog.Value) []datalog.Tuple {
	var out []datalog.Tuple
	r.probe(idx, cellsOf(r, vals), func(row []cell) bool {
		out = append(out, r.syms.tuple(row))
		return true
	})
	return out
}

func TestSecondaryIndexBackfillAndMaintenance(t *testing.T) {
	r := relOf(t, 3)
	r.Insert(tup(1, 7, 3), false)
	r.Insert(tup(2, 7, 4), false)
	r.Insert(tup(3, 8, 4), false)

	// Registering after inserts must backfill.
	idx := r.ensureIndex([]int{1})
	if got := probeAll(r, idx, datalog.Int64(7)); len(got) != 2 {
		t.Fatalf("backfilled probe on col1=7: got %d tuples, want 2", len(got))
	}
	if r.ensureIndex([]int{1}) != idx {
		t.Fatal("EnsureIndex must be idempotent")
	}

	// Inserts after registration must be indexed incrementally.
	r.Insert(tup(9, 7, 9), false)
	if got := probeAll(r, idx, datalog.Int64(7)); len(got) != 3 {
		t.Fatalf("post-insert probe: got %d tuples, want 3", len(got))
	}

	// Deletes must drop the tuple from every index.
	r.Delete(tup(2, 7, 4))
	if got := probeAll(r, idx, datalog.Int64(7)); len(got) != 2 {
		t.Fatalf("post-delete probe: got %d tuples, want 2", len(got))
	}
	for _, got := range probeAll(r, idx, datalog.Int64(7)) {
		if got.Equal(tup(2, 7, 4)) {
			t.Fatal("deleted tuple still in index")
		}
	}

	// Multi-column index over (0,2).
	idx02 := r.ensureIndex([]int{0, 2})
	if got := probeAll(r, idx02, datalog.Int64(3), datalog.Int64(4)); len(got) != 1 ||
		!got[0].Equal(tup(3, 8, 4)) {
		t.Fatalf("multi-column probe: got %v", got)
	}
	if r.probeExists(idx02, cellsOf(r, tup(3, 9))) {
		t.Fatal("probeExists false positive")
	}
	if !r.probeExists(idx02, cellsOf(r, tup(3, 4))) {
		t.Fatal("probeExists false negative")
	}
}

func TestFunctionalIndexHashed(t *testing.T) {
	r := newRelation(&Schema{Name: "fn", Arity: 2, KeyArity: 1, ArgTypes: []string{"", ""}}, &symtab{})
	if r.Insert(tup(1, 10), false) != InsertedNew {
		t.Fatal("insert failed")
	}
	if r.Insert(tup(1, 11), false) != InsertedFDConflict {
		t.Fatal("FD conflict not detected")
	}
	if r.Insert(tup(1, 10), false) != InsertedDup {
		t.Fatal("same-value reinsert must be dup, not conflict")
	}
	id := r.lookupFn(cellsOf(r, tup(1)))
	if id < 0 || !r.syms.tuple(r.row(uint32(id))).Equal(tup(1, 10)) {
		t.Fatalf("lookupFn: row %d", id)
	}
	r.Delete(tup(1, 10))
	if r.lookupFn(cellsOf(r, tup(1))) >= 0 {
		t.Fatal("fn index survived delete")
	}
	if r.Insert(tup(1, 11), false) != InsertedNew {
		t.Fatal("key not reusable after delete")
	}
}

// checkStore verifies the row store's structure: every live row is linked
// exactly once into every index, in the bucket its projection hashes to, no
// chain reaches a freed row — so a deleted or rejected tuple has left no
// trace anywhere — and every symbol a live row names is in the intern table.
func checkStore(r *Relation) error {
	// A row is live, free, or dead on its transaction's list: deleted again by
	// the transaction that inserted it, and holding its cells until the list goes.
	live, listed := 0, 0
	for id, f := range r.flags {
		switch {
		case f&rowLive != 0:
			live++
			for _, c := range r.row(uint32(id)) {
				if hasText(c.kind) && int(c.sym) >= len(r.syms.spans) {
					return fmt.Errorf("row %d names symbol %d of %d", id, c.sym, len(r.syms.spans))
				}
			}
		case f == rowNew && slices.Contains(r.ins, uint32(id)):
			listed++
		case f != 0 || !slices.Contains(r.free, uint32(id)):
			return fmt.Errorf("row %d is neither live, listed nor free (flags %b)", id, f)
		}
	}
	if live != r.n || live+listed+len(r.free) != len(r.flags) {
		return fmt.Errorf("%d live rows, Len %d, %d dead on the list, %d free of %d ids", live, r.n, listed, len(r.free), len(r.flags))
	}
	for xi, x := range r.idx {
		seen, linked := make([]bool, len(r.flags)), 0
		for b, id := range x.heads {
			for ; id != 0; id = x.ents[id-1].next {
				row := id - 1
				if r.flags[row]&rowLive == 0 {
					return fmt.Errorf("index %d (cols %v) reaches freed row %d", xi, x.cols, row)
				}
				if seen[row] {
					return fmt.Errorf("index %d (cols %v) links row %d twice", xi, x.cols, row)
				}
				seen[row] = true
				linked++
				h := hashCells(r.row(row))
				if x.cols != nil {
					h = hashCols(r.row(row), x.cols)
				}
				if x.ents[row].hash != uint32(h) || int(uint32(h)&uint32(len(x.heads)-1)) != b {
					return fmt.Errorf("index %d (cols %v): row %d %v sits in the wrong chain", xi, x.cols, row, r.syms.tuple(r.row(row)))
				}
			}
		}
		if linked != live {
			return fmt.Errorf("index %d (cols %v) links %d rows of %d", xi, x.cols, linked, live)
		}
	}
	return nil
}

// storeModel is the naive reference: a slice of tuples with base flags.
type storeModel struct {
	keyArity int
	rows     []datalog.Tuple
	base     []bool
}

func (m *storeModel) find(t datalog.Tuple) int {
	return slices.IndexFunc(m.rows, func(o datalog.Tuple) bool { return o.Equal(t) })
}

func (m *storeModel) insert(t datalog.Tuple, base bool) InsertResult {
	if i := m.find(t); i >= 0 {
		m.base[i] = m.base[i] || base
		return InsertedDup
	}
	if m.keyArity >= 0 {
		for _, o := range m.rows {
			if datalog.Tuple(o[:m.keyArity]).Equal(t[:m.keyArity]) {
				return InsertedFDConflict
			}
		}
	}
	m.rows, m.base = append(m.rows, t), append(m.base, base)
	return InsertedNew
}

func (m *storeModel) delete(t datalog.Tuple) bool {
	i := m.find(t)
	if i < 0 {
		return false
	}
	m.rows, m.base = slices.Delete(m.rows, i, i+1), slices.Delete(m.base, i, i+1)
	return true
}

// matching returns the model's tuples whose projection onto cols is vals.
func (m *storeModel) matching(cols []int, vals []datalog.Value) []datalog.Tuple {
	var out []datalog.Tuple
	for _, t := range m.rows {
		ok := true
		for i, c := range cols {
			ok = ok && t[c].Equal(vals[i])
		}
		if ok {
			out = append(out, t)
		}
	}
	return out
}

func sameTuples(a, b []datalog.Tuple) bool {
	key := func(ts []datalog.Tuple) []string {
		out := make([]string, len(ts))
		for i, t := range ts {
			out[i] = t.Key()
		}
		sort.Strings(out)
		return out
	}
	return slices.Equal(key(a), key(b))
}

// randValue draws from a domain small enough for duplicates, FD conflicts and
// shared projections to be the common case, across the kinds storage treats
// differently.
func randValue(rng *rand.Rand) datalog.Value {
	switch k := rng.Intn(4); rng.Intn(6) {
	case 0:
		return datalog.String_(fmt.Sprint("s", k))
	case 1:
		return datalog.BytesV([]byte{byte(k)})
	case 2:
		return datalog.Entity("ent", int64(k))
	default:
		return datalog.Int64(int64(k))
	}
}

func randTuple(rng *rand.Rand, arity int) datalog.Tuple {
	t := make(datalog.Tuple, arity)
	for i := range t {
		t[i] = randValue(rng)
	}
	return t
}

// TestRelationMatchesModel drives random insert / delete / base-promote /
// probe / LookupFn / Each sequences — inserts from inside Probe and Each
// callbacks included — against the slice model, over arities 0–5, functional
// shapes down to the p[]=v singleton, and index-less tuple sets, checking the
// store's structure after every mutation.
func TestRelationMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arity := rng.Intn(6)
		keyArity := -1
		if arity > 0 && rng.Intn(2) == 0 {
			keyArity = rng.Intn(arity) // 0 is the p[]=v singleton
		}
		r := newRelation(&Schema{Name: "m", Arity: arity, KeyArity: keyArity, ArgTypes: make([]string, arity)}, &symtab{})
		if seed%7 == 0 {
			r, keyArity = NewWorkspace(nil).NewTupleSet(arity), -1
		}
		m := &storeModel{keyArity: keyArity}
		var indexes []*hashIndex
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (arity %d, key arity %d): %s", seed, arity, keyArity, fmt.Sprintf(format, args...))
		}
		mutate := func(what string) {
			t.Helper()
			if err := checkStore(r); err != nil {
				fail("after %s: %v", what, err)
			}
			if r.Len() != len(m.rows) {
				fail("after %s: Len %d, model %d", what, r.Len(), len(m.rows))
			}
		}
		insert := func(tp datalog.Tuple, base bool) {
			t.Helper()
			if got, want := r.Insert(tp, base), m.insert(tp, base); got != want {
				fail("Insert(%v, %v) = %d, model %d", tp, base, got, want)
			}
			mutate(fmt.Sprintf("Insert(%v)", tp))
		}
		maxLive := 0
		for op := 0; op < 400; op++ {
			maxLive = max(maxLive, len(m.rows))
			switch c := rng.Intn(100); {
			case c < 40:
				insert(randTuple(rng, arity), rng.Intn(4) == 0)
			case c < 58:
				tp := randTuple(rng, arity)
				if len(m.rows) > 0 && rng.Intn(3) > 0 {
					tp = m.rows[rng.Intn(len(m.rows))] // delete something that is there
				}
				if got, want := r.Delete(tp), m.delete(tp); got != want {
					fail("Delete(%v) = %v, model %v", tp, got, want)
				}
				mutate(fmt.Sprintf("Delete(%v)", tp))
			case c < 62 && arity > 1 && len(indexes) < 3:
				// Register an index part-way through: it must backfill.
				var cols []int
				for col := 0; col < arity; col++ {
					if rng.Intn(2) == 0 {
						cols = append(cols, col)
					}
				}
				if len(cols) == 0 || len(cols) == arity {
					continue
				}
				x := r.ensureIndex(cols)
				if !slices.Contains(indexes, x) {
					indexes = append(indexes, x)
				}
				mutate(fmt.Sprintf("ensureIndex(%v)", cols))
			case c < 75 && len(indexes) > 0:
				x := indexes[rng.Intn(len(indexes))]
				probe := randTuple(rng, arity)
				if len(m.rows) > 0 && rng.Intn(2) == 0 {
					probe = m.rows[rng.Intn(len(m.rows))]
				}
				var vals []datalog.Value
				for _, col := range x.cols {
					vals = append(vals, probe[col])
				}
				want := m.matching(x.cols, vals)
				if r.probeExists(x, cellsOf(r, vals)) != (len(want) > 0) {
					fail("probeExists(%v, %v) disagrees with the model", x.cols, vals)
				}
				// Every other probe inserts from its callback: tuples with the
				// probed projection (they extend the very chain being walked)
				// and enough others to grow and split the tables under it.
				var got, added []datalog.Tuple
				r.probe(x, cellsOf(r, vals), func(row []cell) bool {
					got = append(got, r.syms.tuple(row))
					if op%2 == 0 && len(added) < 24 {
						for k := 0; k < 6; k++ {
							nt := randTuple(rng, arity)
							if k < 2 {
								for i, col := range x.cols {
									nt[col] = vals[i]
								}
							}
							if r.Insert(nt, false) == InsertedNew {
								added = append(added, nt)
							}
						}
					}
					return true
				})
				// Everything present when the probe began is visited exactly
				// once; what the callback inserted may or may not be.
				var old []datalog.Tuple
				for _, tp := range got {
					if !slices.ContainsFunc(added, tp.Equal) {
						old = append(old, tp)
					}
				}
				if !sameTuples(old, want) {
					fail("probe(%v, %v) visited %v (+%d of its own inserts), model %v", x.cols, vals, old, len(got)-len(old), want)
				}
				for _, nt := range added {
					if m.insert(nt, false) != InsertedNew {
						fail("store accepted %v from a probe callback, the model does not", nt)
					}
				}
				mutate("inserts during probe")
			case c < 82:
				var got, added []datalog.Tuple
				before := slices.Clone(m.rows)
				r.each(func(row []cell) bool {
					got = append(got, r.syms.tuple(row))
					if op%2 == 0 && len(added) < 24 {
						if nt := randTuple(rng, arity); r.Insert(nt, false) == InsertedNew {
							added = append(added, nt)
						}
					}
					return true
				})
				var old []datalog.Tuple
				for _, tp := range got {
					if !slices.ContainsFunc(added, tp.Equal) {
						old = append(old, tp)
					}
				}
				if !sameTuples(old, before) {
					fail("each visited %v, model %v", old, before)
				}
				for _, nt := range added {
					if m.insert(nt, false) != InsertedNew {
						fail("store accepted %v from an Each callback, the model does not", nt)
					}
				}
				mutate("inserts during each")
				if !sameTuples(r.Tuples(), m.rows) {
					fail("Tuples() = %v, model %v", r.Tuples(), m.rows)
				}
			case c < 90:
				tp := randTuple(rng, arity)
				if len(m.rows) > 0 && rng.Intn(2) == 0 {
					tp = m.rows[rng.Intn(len(m.rows))]
				}
				i := m.find(tp)
				row := r.rowOfTuple(tp)
				if (row >= 0) != (i >= 0) || r.Contains(tp) != (i >= 0) || (row >= 0 && !r.syms.tuple(r.row(uint32(row))).Equal(tp)) {
					fail("rowOf(%v) = %d, model index %d", tp, row, i)
				}
				if base := row >= 0 && r.flags[row]&rowBase != 0; base != (i >= 0 && m.base[i]) {
					fail("%v base = %v, model disagrees", tp, base)
				}
				if derived := r.derived(cellsOf(r, tp)) >= 0; derived != (i >= 0 && !m.base[i]) {
					fail("derived(%v) = %v, model disagrees", tp, derived)
				}
			default:
				if keyArity < 0 {
					if r.lookupFn(nil) >= 0 {
						fail("lookupFn on a relational predicate found something")
					}
					continue
				}
				keys := randTuple(rng, keyArity)
				if len(m.rows) > 0 && rng.Intn(2) == 0 {
					keys = slices.Clone(m.rows[rng.Intn(len(m.rows))][:keyArity])
				}
				want := m.matching(r.fn.cols, keys)
				id := r.lookupFn(cellsOf(r, keys))
				if (id >= 0) != (len(want) == 1) || (id >= 0 && !r.syms.tuple(r.row(uint32(id))).Equal(want[0])) {
					fail("lookupFn(%v) = row %d, model %v", keys, id, want)
				}
			}
		}
		// Freed ids are reused: the pages never outgrow the largest extent.
		// (Callback inserts can push the extent past maxLive within one op.)
		if len(r.flags) > maxLive+24*6 {
			fail("pages hold %d ids for at most %d live rows: freed ids are not reused", len(r.flags), maxLive)
		}
		r.reset()
		m.rows, m.base = nil, nil
		mutate("Reset")
		insert(randTuple(rng, arity), true)
	}
}

// TestRowIDReuse: a deleted row's id is the next one handed out, in every
// index, and the reused row is reachable through all of them.
func TestRowIDReuse(t *testing.T) {
	r := relOf(t, 2)
	x := r.ensureIndex([]int{1})
	for i := int64(0); i < 20; i++ {
		r.Insert(tup(i, i%3), false)
	}
	r.Delete(tup(7, 1))
	r.Delete(tup(3, 0))
	r.Insert(tup(100, 1), false)
	r.Insert(tup(101, 1), false)
	r.Insert(tup(102, 1), false)
	if len(r.flags) != 21 || len(r.free) != 0 {
		t.Fatalf("20 - 2 + 3 rows take %d ids with %d free, want 21 and 0", len(r.flags), len(r.free))
	}
	if got := probeAll(r, x, datalog.Int64(1)); len(got) != 9 {
		t.Fatalf("col1=1 probe finds %d tuples, want 9 (7 - 1 + 3)", len(got))
	}
	if err := checkStore(r); err != nil {
		t.Fatal(err)
	}
}

// storeSnapshot captures what a rolled-back transaction must restore: every
// relation's extent with base flags, the entity counters, the Skolem table
// size and the intern table's mark.
func storeSnapshot(t *testing.T, w *Workspace) string {
	t.Helper()
	var out []string
	for _, pred := range w.Predicates() {
		rel := w.rels[pred]
		if err := checkStore(rel); err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		for _, tp := range rel.Tuples() {
			out = append(out, fmt.Sprintf("%s%v base=%v", pred, tp, rel.derived(cellsOf(rel, tp)) < 0))
		}
	}
	sort.Strings(out)
	return fmt.Sprintf("%v\ncounters %v skolems %d symbols %+v", out, w.entCounters, len(w.skolems), w.syms.mark())
}

// TestRollbackRestoresStore: a rejected transaction — one that inserted,
// derived through several rounds, minted entities and replaced aggregate
// values (one of them twice) before a constraint failed — leaves extents, base flags, every
// index, the entity counters and the intern table exactly as they were.
func TestRollbackRestoresStore(t *testing.T) {
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(`
		tok(T) -> .
		link(X, Y) -> int(X), int(Y).
		reach(X, Y) <- link(X, Y).
		reach(X, Z) <- link(X, Y), reach(Y, Z).
		hops[X] = C <- agg<<C = count(Y)>> reach(X, Y).
		far[X] = M <- agg<<M = max(Y)>> reach(X, Y).
		tok(T), owner[T] = X <- link(X, X).
		reach(X, Y) -> X < 50, Y < 50.
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	var facts []Fact
	for i := int64(0); i < 12; i++ {
		facts = append(facts, Fact{Pred: "link", Tuple: tup(i, (i+1)%12)}, Fact{Pred: "link", Tuple: tup(i, (i*5)%12)})
	}
	if _, err := w.Assert(facts); err != nil {
		t.Fatal(err)
	}
	want := storeSnapshot(t, w)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		var bad []Fact
		for j := 0; j < 1+rng.Intn(6); j++ {
			x := int64(rng.Intn(14))
			bad = append(bad, Fact{Pred: "link", Tuple: tup(x, int64(rng.Intn(14)))}, Fact{Pred: "link", Tuple: tup(x, x)})
		}
		// Reachable from the cycle, out of the constraint's range: the
		// violation appears rounds after the transaction started deriving.
		bad = append(bad, Fact{Pred: "link", Tuple: tup(int64(rng.Intn(12)), 60+int64(i))})
		if _, err := w.Assert(bad); err == nil {
			t.Fatal("transaction must be rejected")
		}
		if got := storeSnapshot(t, w); got != want {
			t.Fatalf("rejected transaction %d changed the store:\n--- before ---\n%s\n--- after ---\n%s", i, want, got)
		}
	}
	// Delete-then-reinsert inside one transaction: near[10] is 5 before it,
	// becomes 4 in its second round and 3 in its third (each a replacement:
	// the old value deleted, the new one inserted), and the violation is only
	// found after the fixpoint. Rollback must unwind 3 and 4 — both inserted
	// and one of them deleted again by the transaction itself — and restore
	// the 5 it found, not any value it made.
	near, err := datalog.Parse(`near[X] = M <- agg<<M = min(Y)>> reach(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(near); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Assert([]Fact{{Pred: "link", Tuple: tup(20, 25)}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := w.LookupFn("near", datalog.Int64(20)); v.Int != 25 {
		t.Fatalf("near[20] = %v before the transaction, want 25", v)
	}
	want = storeSnapshot(t, w)
	chain := []Fact{
		{Pred: "link", Tuple: tup(25, 24)}, {Pred: "link", Tuple: tup(24, 23)},
		{Pred: "link", Tuple: tup(23, 70)}, // out of range, three hops from 20
	}
	if _, err := w.Assert(chain); err == nil {
		t.Fatal("transaction must be rejected")
	}
	if got := storeSnapshot(t, w); got != want {
		t.Fatalf("rollback after 25→24→23 replacement changed the store:\n--- before ---\n%s\n--- after ---\n%s", want, got)
	}
	// The same chain without the violation commits the replacements, so the
	// rejected run above really went through them.
	if _, err := w.Assert(chain[:2]); err != nil {
		t.Fatal(err)
	}
	if v, _ := w.LookupFn("near", datalog.Int64(20)); v.Int != 23 {
		t.Fatalf("near[20] = %v after the chain committed, want 23", v)
	}

	// And a retraction that a constraint rejects. (Install the constraint
	// now: it holds today and fails once node 0's only inbound link goes.)
	guard, err := datalog.Parse(`hops[X] = C, X < 12 -> C > 11.`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(guard); err != nil {
		t.Fatal(err)
	}
	want = storeSnapshot(t, w)
	if err := w.Retract([]Fact{{Pred: "link", Tuple: tup(11, 0)}}); err == nil {
		t.Fatal("retraction must be rejected")
	}
	if got := storeSnapshot(t, w); got != want {
		t.Fatalf("rejected retraction changed the store:\n--- before ---\n%s\n--- after ---\n%s", want, got)
	}

	// A rejected transaction that asserts an already-derived tuple as an EDB
	// fact promotes the row in place; rollback must demote it again, or the
	// retraction of its only support leaves it standing as a base fact.
	if _, err := w.Assert([]Fact{{Pred: "link", Tuple: tup(30, 31)}}); err != nil {
		t.Fatal(err)
	}
	want = storeSnapshot(t, w)
	if _, err := w.Assert([]Fact{{Pred: "reach", Tuple: tup(30, 31)}, {Pred: "link", Tuple: tup(60, 30)}}); err == nil {
		t.Fatal("transaction must be rejected")
	}
	if got := storeSnapshot(t, w); got != want {
		t.Fatalf("rejected base assertion of a derived tuple changed the store:\n--- before ---\n%s\n--- after ---\n%s", want, got)
	}
	if err := w.Retract([]Fact{{Pred: "link", Tuple: tup(30, 31)}}); err != nil {
		t.Fatal(err)
	}
	if w.Contains("reach", tup(30, 31)) {
		t.Fatal("reach(30,31) outlived link(30,31): the rolled-back promotion to a base fact stuck")
	}
}

// TestInsertedListsWhatTheTransactionInserted: the per-predicate view of a
// committed transaction over aggregates that move — hops[20] twice in one
// transaction, so the 5 it passed through is listed, dead, before the 6 — and
// straight after a transaction that failed mid-fixpoint. The lists are the ones
// the evaluator's map of tuple slices held at the parent of the change that
// replaced it (printed there by the same program), order included.
func TestInsertedListsWhatTheTransactionInserted(t *testing.T) {
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(`
		link(X, Y) -> int(X), int(Y).
		reach(X, Y) <- link(X, Y).
		reach(X, Z) <- link(X, Y), reach(Y, Z).
		near[X] = M <- agg<<M = min(Y)>> reach(X, Y).
		hops[X] = C <- agg<<C = count(Y)>> reach(X, Y).
		owner[X] = Y <- reach(X, Y), Y > 100.
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Assert([]Fact{{Pred: "link", Tuple: tup(20, 25)}, {Pred: "link", Tuple: tup(20, 50)}, {Pred: "link", Tuple: tup(50, 51)}}); err != nil {
		t.Fatal(err)
	}
	// owner[24] gets two values in the second round: a rollback from inside
	// the fixpoint, with rows listed and a round half evaluated.
	if _, err := w.Assert([]Fact{{Pred: "link", Tuple: tup(25, 24)}, {Pred: "link", Tuple: tup(24, 101)}, {Pred: "link", Tuple: tup(24, 102)}}); err == nil {
		t.Fatal("transaction must be rejected")
	}
	res, err := w.Assert([]Fact{{Pred: "link", Tuple: tup(25, 24)}, {Pred: "link", Tuple: tup(24, 23)}, {Pred: "link", Tuple: tup(51, 10)}})
	if err != nil {
		t.Fatal(err)
	}
	for pred, want := range map[string]string{
		"hops":  "[(20, 5) (50, 2) (25, 2) (24, 1) (51, 1) (20, 6)]",
		"link":  "[(25, 24) (24, 23) (51, 10)]",
		"near":  "[(20, 23) (50, 10) (25, 23) (24, 23) (51, 10) (20, 10)]",
		"owner": "[]",
		"reach": "[(25, 24) (24, 23) (51, 10) (25, 23) (20, 24) (50, 10) (20, 23) (20, 10)]",
	} {
		if got := fmt.Sprint(res.Inserted(pred)); got != want {
			t.Errorf("Inserted(%s) = %s, want %s", pred, got, want)
		}
	}
	if v, _ := w.LookupFn("hops", datalog.Int64(20)); v.Int != 6 {
		t.Errorf("hops[20] = %v, want 6", v)
	}
	for _, pred := range w.Predicates() {
		if err := checkStore(w.rels[pred]); err != nil {
			t.Errorf("%s: %v", pred, err)
		}
	}
	// The next transaction takes the lists over: the dead rows go.
	if _, err := w.Assert(nil); err != nil {
		t.Fatal(err)
	}
	if rel := w.rels["hops"]; len(rel.ins) != 0 || rel.Len()+len(rel.free) != len(rel.flags) {
		t.Errorf("hops keeps %d listed rows and %d ids for %d tuples and %d free ids", len(rel.ins), len(rel.flags), rel.Len(), len(rel.free))
	}
}

// TestHashCollisionsAreVerified: two different tuples with the same stored
// hash are two members — a collision is resolved by equality, never by
// treating the newcomer as present (which, in dist's sent-set, would suppress
// a send).
func TestHashCollisionsAreVerified(t *testing.T) {
	// Indexes keep 32 bits of the hash, so a birthday search over a few
	// hundred thousand ints finds two tuples they cannot tell apart.
	byHash := make(map[uint32]datalog.Tuple)
	var a, b datalog.Tuple
	for i := int64(0); a == nil; i++ {
		tp := tup(i)
		h := uint32(hashCells([]cell{{kind: datalog.KindInt, bits: uint64(i)}}))
		if prev, dup := byHash[h]; dup {
			a, b = prev, tp
		}
		byHash[h] = tp
	}
	set := NewWorkspace(nil).NewTupleSet(1)
	if set.Insert(a, false) != InsertedNew || set.Contains(b) {
		t.Fatalf("%v is reported present because %v collides with it", b, a)
	}
	if set.Insert(b, false) != InsertedNew || set.Len() != 2 {
		t.Fatal("colliding tuple was not stored as a second member")
	}
	if !set.Delete(a) || set.Contains(a) || !set.Contains(b) {
		t.Fatal("deleting one colliding tuple must leave the other")
	}
	if err := checkStore(set); err != nil {
		t.Fatal(err)
	}
}
