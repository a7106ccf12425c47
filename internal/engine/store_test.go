package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"secureblox/internal/datalog"
)

// storeProgram stores every kind of value: ints and strings (string + and <),
// names, principals and nodes in the base relation; entities from a head
// existential; bytes from the digest UDF, which returns equal byte strings
// whenever it is called on equal strings, in any transaction.
const storeProgram = `
	item(I, S, N, P, A) -> int(I), string(S), name(N), principal(P), node(A).
	item(I, _, _, _, _) -> I < 100.
	principal(#p0). principal(#p1). principal(#p2).
	label(I, L) <- item(I, S, _, _, _), L = S + "!".
	small(I, S) <- item(I, S, _, _, _), S < "m".
	export(A, I, D) <- item(I, S, _, _, A), digest(S, D).
	first[A] = J <- agg<<J = min(I)>> item(I, _, _, _, A).
	tok(T) -> .
	tok(T), owner[T] = P <- item(_, _, _, P, _).
`

func digestRegistry(t *testing.T) *UDFRegistry {
	reg := NewUDFRegistry()
	if err := reg.Register(&FuncUDF{FName: "digest", InArity: 1, OutArity: 1,
		Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
			return datalog.OwnedBytes([]byte("digest of " + in[0].Str)), true, nil
		}}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// derived is what the store must hold, given the base items alone (entities
// aside: the test checks those against the principals).
func (m itemModel) derived() map[string]map[string]datalog.Tuple {
	out := map[string]map[string]datalog.Tuple{}
	add := func(pred string, t datalog.Tuple) {
		if out[pred] == nil {
			out[pred] = map[string]datalog.Tuple{}
		}
		out[pred][t.Key()] = t
	}
	first := map[string]datalog.Tuple{}
	for _, it := range m {
		add("item", it)
		i, s, a := it[0], it[1].Str, it[4]
		add("label", datalog.Tuple{i, datalog.String_(s + "!")})
		if s < "m" {
			add("small", datalog.Tuple{i, it[1]})
		}
		add("export", datalog.Tuple{a, i, datalog.BytesV([]byte("digest of " + s))})
		if f, ok := first[a.Str]; !ok || i.Int < f[1].Int {
			first[a.Str] = datalog.Tuple{a, i}
		}
	}
	for _, f := range first {
		add("first", f)
	}
	return out
}

// itemModel is the committed base facts, by Tuple.Key.
type itemModel map[string]datalog.Tuple

// TestStoreMatchesValueModel drives random asserts, rejected asserts (rolled
// back) and retractions over storeProgram and checks Tuples, Contains and
// LookupFn against the values model after every one. Along the way it keeps
// views of committed exports — bytes whose text lives in the intern table —
// and checks that later rolled-back transactions, which intern and then drop
// text of their own, never change them; and that reading text the table has
// never seen interns nothing.
func TestStoreMatchesValueModel(t *testing.T) {
	words := []string{"apple", "kiwi", "melon", "zest", "", "fig", "nut"}
	nodes := []string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1"}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := NewWorkspace(digestRegistry(t))
		prog, err := datalog.Parse(storeProgram)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Install(prog); err != nil {
			t.Fatal(err)
		}
		model := itemModel{}
		fresh := 0
		item := func(i int64) datalog.Tuple {
			s := words[rng.Intn(len(words))]
			if rng.Intn(3) == 0 {
				fresh++
				s = fmt.Sprintf("w%d", fresh) // text the table has not seen yet
			}
			return datalog.Tuple{datalog.Int64(i), datalog.String_(s), datalog.Name(fmt.Sprint("n", rng.Intn(2))),
				datalog.Prin(fmt.Sprint("p", rng.Intn(3))), datalog.NodeV(nodes[rng.Intn(len(nodes))])}
		}
		type view struct {
			t    datalog.Tuple
			want []byte
		}
		var views []view
		fail := func(op int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, op %d: %s", seed, op, fmt.Sprintf(format, args...))
		}
		for op := 0; op < 60; op++ {
			switch c := rng.Intn(10); {
			case c < 5:
				var facts []Fact
				for n := 1 + rng.Intn(3); n > 0; n-- {
					facts = append(facts, Fact{Pred: "item", Tuple: item(int64(rng.Intn(100)))})
				}
				res, err := w.Assert(facts)
				if err != nil {
					fail(op, "assert %v: %v", facts, err)
				}
				for _, f := range facts {
					model[f.Tuple.Key()] = f.Tuple
				}
				for _, e := range res.Inserted("export") {
					views = append(views, view{e, bytes.Clone(e[2].Bytes())})
				}
			case c < 8:
				before := w.syms.mark()
				facts := []Fact{{Pred: "item", Tuple: item(int64(rng.Intn(100)))}, {Pred: "item", Tuple: item(100 + int64(rng.Intn(9)))}}
				if _, err := w.Assert(facts); err == nil {
					fail(op, "assert %v: the constraint must reject it", facts)
				}
				if got := w.syms.mark(); got != before {
					fail(op, "rolled-back assert moved the intern table from %+v to %+v", before, got)
				}
			default:
				var victim datalog.Tuple
				keys := make([]string, 0, len(model))
				for k := range model {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if len(keys) > 0 && rng.Intn(4) > 0 {
					victim = model[keys[rng.Intn(len(keys))]]
				} else {
					victim = item(int64(rng.Intn(100)))
				}
				if err := w.Retract([]Fact{{Pred: "item", Tuple: victim}}); err != nil {
					fail(op, "retract %v: %v", victim, err)
				}
				delete(model, victim.Key())
			}

			// The store against the model.
			want := model.derived()
			for _, pred := range []string{"item", "label", "small", "export", "first"} {
				got := map[string]bool{}
				for _, tp := range w.Tuples(pred) {
					got[tp.Key()] = true
					if _, ok := want[pred][tp.Key()]; !ok {
						fail(op, "%s holds %v, the model does not", pred, tp)
					}
				}
				if len(got) != len(want[pred]) || w.Count(pred) != len(want[pred]) {
					fail(op, "%s: %d tuples (Count %d), model %d", pred, len(got), w.Count(pred), len(want[pred]))
				}
				for _, tp := range want[pred] {
					if !w.Contains(pred, tp) {
						fail(op, "%s does not contain %v", pred, tp)
					}
				}
			}
			for _, f := range want["first"] {
				if v, ok := w.LookupFn("first", f[0]); !ok || !v.Equal(f[1]) {
					fail(op, "first[%s] = %v %v, model %s", f[0], v, ok, f[1])
				}
			}
			owners := map[string]bool{}
			for _, it := range model {
				owners[it[3].Str] = true
			}
			if w.Count("tok") != len(owners) || w.Count("owner") != len(owners) {
				fail(op, "%d entities and %d owners for %d principals", w.Count("tok"), w.Count("owner"), len(owners))
			}
			for _, o := range w.Tuples("owner") {
				if o[0].Kind != datalog.KindEntity || o[0].Str != "tok" || !owners[o[1].Str] || !w.Contains("tok", o[:1]) {
					fail(op, "owner%v does not name a live principal's entity", o)
				}
				if v, ok := w.LookupFn("owner", o[0]); !ok || !v.Equal(o[1]) {
					fail(op, "owner[%s] = %v %v, want %s", o[0], v, ok, o[1])
				}
			}
			for _, v := range views {
				if !bytes.Equal(v.t[2].Bytes(), v.want) {
					fail(op, "a committed export's bytes changed from %q to %q", v.want, v.t[2].Bytes())
				}
			}
			for _, pred := range w.Predicates() {
				if err := checkStore(w.relation(pred)); err != nil {
					fail(op, "%s: %v", pred, err)
				}
			}
		}
		if len(views) == 0 {
			t.Fatalf("seed %d: no export was ever inserted: the view check proved nothing", seed)
		}

		// Reads never intern: text the table has never seen is simply absent.
		n := len(w.syms.spans)
		unseen := datalog.Tuple{datalog.Int64(1), datalog.String_("never stored"), datalog.Name("n0"), datalog.Prin("p0"), datalog.NodeV(nodes[0])}
		if w.Contains("item", unseen) || w.Contains("small", unseen[:2]) {
			t.Fatal("a tuple with unseen text is reported present")
		}
		if _, ok := w.LookupFn("first", datalog.NodeV("10.9.9.9:9")); ok {
			t.Fatal("LookupFn found a key with unseen text")
		}
		if got := len(w.syms.spans); got != n {
			t.Fatalf("reads grew the intern table from %d to %d symbols", n, got)
		}
		if slices.ContainsFunc(w.Tuples("item"), func(tp datalog.Tuple) bool { return tp.Equal(unseen) }) {
			t.Fatal("unseen tuple listed")
		}
	}
}
