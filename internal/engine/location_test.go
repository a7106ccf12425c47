package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"secureblox/internal/datalog"
)

// TestRowsAddressedElsewhereCostNoProbes: the generated sign and export rules
// lead with says(self[], U, V) when says changes. Their delta plans resolve
// self[] and principal_node[self[]] once, before the leading scan, so a row
// another principal said to this one fails the delta atom's unification and
// costs no probe: a transaction of k such rows probes exactly the plans'
// location lookups — self[] for the sign rule, self[] and
// principal_node[self[]] for the export rule — whatever k is.
func TestRowsAddressedElsewhereCostNoProbes(t *testing.T) {
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(`
		sig(self[], U, V, 0) <- says(self[], U, V), U != self[].
		export(N, L, V) <- says(self[], U, V), sig(self[], U, V, S),
			principal_node[U]=N, principal_node[self[]]=L.
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	assertFacts(t, w, `self[]=#me. principal_node[#me]=@"a:1". principal_node[#you]=@"b:1".`)
	inbound := func(k int) []Fact {
		facts := make([]Fact, k)
		for i := range facts {
			facts[i] = Fact{Pred: "says", Tuple: datalog.Tuple{datalog.Prin("you"), datalog.Prin("me"), datalog.Int64(int64(len(w.Tuples("says")) + i))}}
		}
		return facts
	}
	for _, k := range []int{1, 64} {
		before := w.Stats()
		if _, err := w.Assert(inbound(k)); err != nil {
			t.Fatal(err)
		}
		if d := w.Stats().Sub(before); d.IndexProbes != 3 || d.FullScanFallbacks != 0 {
			t.Errorf("%d inbound says rows: %d probes, %d fallbacks; want 3 (the location lookups) and 0", k, d.IndexProbes, d.FullScanFallbacks)
		}
	}
	if n := w.Count("sig") + w.Count("export"); n != 0 {
		t.Fatalf("rows addressed to this node derived %d sig/export rows", n)
	}
	// The node's own rows still go out.
	assertFacts(t, w, `says(#me, #you, 7).`)
	if got := fmt.Sprint(w.Tuples("export")); got != `[(@"b:1", @"a:1", 7)]` {
		t.Errorf("export = %s", got)
	}
}

// hashJoinDecls are the declarations of the NoAuth hash-join program: six of
// them only restate what the store checks on insert, five check principal
// membership.
const hashJoinDecls = `
	a(E1, E2) -> int(E1), int(E2).
	b(E3, E2) -> int(E3), int(E2).
	a2(E1, E2) -> int(E1), int(E2).
	b2(E3, E2) -> int(E3), int(E2).
	joinresult(E1, E2, E3) -> int(E1), int(E2), int(E3).
	prin_minhash[U]=Lo -> principal(U), int(Lo).
	prin_maxhash[U]=Hi -> principal(U), int(Hi).
	export(N, L, Pkt) -> node(N), node(L), bytes(Pkt).
	says['a2](P1, P2, V0, V1) -> principal(P1), principal(P2), int(V0), int(V1).
	says['b2](P1, P2, V0, V1) -> principal(P1), principal(P2), int(V0), int(V1).
	says['joinresult](P1, P2, V0, V1, V2) -> principal(P1), principal(P2), int(V0), int(V1), int(V2).
`

// installStoreChecked installs src on two workspaces, the second with every
// constraint's store-checked mark cleared: the transaction check as it ran
// before constraints were marked.
func installStoreChecked(t *testing.T, src string) (marked, unmarked *Workspace) {
	t.Helper()
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	marked, unmarked = NewWorkspace(nil), NewWorkspace(nil)
	if err := marked.Install(prog); err != nil {
		t.Fatal(err)
	}
	if err := unmarked.Install(prog); err != nil {
		t.Fatal(err)
	}
	for _, c := range unmarked.prog.constraints {
		c.storeChecked = false
	}
	return marked, unmarked
}

// TestStoreCheckedConstraintsMatchCheckTuple: every constraint the compiler
// marks store-checked rejects, through the store's own insert check, each row
// that puts a value of the wrong kind in one of its checked columns — with the
// same error, and the same verdict on a well-typed row, as the transaction
// check that still runs it.
func TestStoreCheckedConstraintsMatchCheckTuple(t *testing.T) {
	src := hashJoinDecls + `
		pathvar(P) -> .
		path(P, Src, C) -> pathvar(P), node(Src), int(C).
		best[Src]=C -> node(Src), int(C).
		flag(B, S) -> bool(B), string(S).
	`
	marked, unmarked := installStoreChecked(t, src)
	good := map[string]datalog.Value{
		"int": datalog.Int64(1), "node": datalog.NodeV("a:1"), "bytes": datalog.BytesV([]byte{1}),
		"bool": datalog.Bool(true), "string": datalog.String_("s"), "principal": datalog.Prin("p"),
		"pathvar": datalog.Entity("pathvar", 1),
	}
	bad := map[string]datalog.Value{
		"int": datalog.String_("1"), "node": datalog.Int64(1), "bytes": datalog.String_("b"),
		"bool": datalog.Int64(1), "string": datalog.Int64(1), "pathvar": datalog.Entity("other", 1),
	}
	n := 0
	for _, c := range marked.prog.constraints {
		if !c.storeChecked {
			continue
		}
		n++
		lhs := &c.lhsDeltaPlans[0].steps[0]
		pred := lhs.pred
		types := marked.prog.cat.Schema(pred).ArgTypes
		row := make(datalog.Tuple, len(types))
		for i, typ := range types {
			row[i] = good[typ]
		}
		for _, s := range c.rhsSteps {
			i := argIndex(lhs.atom, s.checked)
			wrong := append(datalog.Tuple(nil), row...)
			wrong[i] = bad[s.typeName]
			_, errM := marked.Assert([]Fact{{Pred: pred, Tuple: wrong}})
			_, errU := unmarked.Assert([]Fact{{Pred: pred, Tuple: wrong}})
			var v *ConstraintViolation
			if !errors.As(errM, &v) || errU == nil || errM.Error() != errU.Error() {
				t.Errorf("%s: %s with a %s in column %d: marked %v, unmarked %v", c, pred, bad[s.typeName].Kind, i, errM, errU)
			}
		}
		facts := []Fact{{Pred: pred, Tuple: row}}
		_, errM := marked.Assert(facts)
		_, errU := unmarked.Assert(facts)
		if errM != nil || errU != nil {
			t.Errorf("%s: well-typed %v: marked %v, unmarked %v", c, row, errM, errU)
		}
	}
	if n != 10 {
		t.Errorf("%d constraints store-checked, want 10 (6 of the hash join's 11, pathvar, path, best, flag)", n)
	}
	if !sameExtents(t, marked, unmarked) {
		t.Error("marked and unmarked workspaces diverged")
	}
}

// argIndex returns the position of variable t among a's arguments.
func argIndex(a *datalog.Atom, t datalog.Term) int {
	for i, arg := range a.Args {
		if arg == t {
			return i
		}
	}
	return -1
}

// TestStoreCheckedConstraintStillFailsInstall: the store checks a declared
// column's kind on every insert, so a transaction's check skips the
// declarations that only restate it (storeChecked); the full verification
// that ends Bind (and so Install) runs them all the same. An untyped row is
// rejected by the store, and — with the store's check stripped from the
// compiled program — by that verification alone; either way the rejected Bind
// leaves a new workspace behind.
func TestStoreCheckedConstraintStillFailsInstall(t *testing.T) {
	prog, err := datalog.Parse(`
		pathvar(P) -> .
		path(P, C) -> pathvar(P), int(C).
		path(1, 2).
	`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(prog, NewUDFRegistry())
	if err != nil || !p.constraints[1].storeChecked {
		t.Fatalf("the path declaration is not store-checked (%v)", err)
	}
	unchecked := *p
	unchecked.rels = slices.Clone(p.rels)
	unchecked.rels[p.relNo["path"]].kinds = nil
	for _, c := range []struct {
		name string
		p    *Program
		want string
	}{{"the store", p, "pathvar"}, {"the full verification", &unchecked, "pathvar(P)"}} {
		w := NewWorkspace(nil)
		err := w.Bind(c.p)
		var v *ConstraintViolation
		if !errors.As(err, &v) || !strings.Contains(v.Constraint, c.want) {
			t.Fatalf("%s: Bind over an untyped row: %v, want the path declaration violated", c.name, err)
		}
		if w.relation("pathvar") != nil || w.relation("path") != nil || len(w.syms.spans) > 0 {
			t.Errorf("%s: rejected Bind left pathvar or path declared, or text interned", c.name)
		}
	}
}

// TestRuleDerivingIntoLocationIsRejected: self and principal_node hold the
// node's location, which delta plans resolve once per evaluation; only facts
// assert them.
func TestRuleDerivingIntoLocationIsRejected(t *testing.T) {
	for _, src := range []string{
		`self[]=P <- candidate(P).`,
		`principal_node[P]=N <- seen(P, N).`,
		`principal_node(P, N), other(P) <- seen(P, N).`,
	} {
		prog, err := datalog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(prog, NewUDFRegistry()); err == nil || !strings.Contains(err.Error(), "location") {
			t.Errorf("%s compiled: %v", src, err)
		}
	}
}

// TestAggregateRecomputeResolvesLocationOnce: path-vector's bestcost rule is
// recomputed in full whenever path changes. The recompute runs the rule's
// first plan, led by path, so self[] and principal_node[self[]] are one probe
// each before the scan of path: a one-row assert costs exactly 2 probes and
// N+3 tuples scanned over N stored path rows (the N+1 path rows and the two
// location rows), whatever N is — not two probes per path row.
func TestAggregateRecomputeResolvesLocationOnce(t *testing.T) {
	for _, n := range []int{1000, 4000} {
		w := installed(t, nil, `
			bestcost[Me, N]=C <- agg<< C=min(Cx) >> path(P, Me, N, Cx),
				principal_node[self[]]=Me.
		`)
		assertFacts(t, w, `self[]=#me. principal_node[#me]=@"a:1".`)
		me := datalog.NodeV("a:1")
		row := func(i int) Fact {
			return Fact{Pred: "path", Tuple: datalog.Tuple{datalog.Int64(int64(i)), me, datalog.Int64(int64(i % 50)), datalog.Int64(int64(1 + i%7))}}
		}
		facts := make([]Fact, n)
		for i := range facts {
			facts[i] = row(i)
		}
		if _, err := w.Assert(facts); err != nil {
			t.Fatal(err)
		}
		before := w.Stats()
		if _, err := w.Assert([]Fact{row(n)}); err != nil {
			t.Fatal(err)
		}
		d := w.Stats().Sub(before)
		if d.IndexProbes != 2 || d.TuplesScanned != int64(n+3) || d.FullScanFallbacks != 0 {
			t.Errorf("%d path rows, one more asserted: %d probes, %d tuples scanned, %d fallbacks; want 2, %d and 0",
				n, d.IndexProbes, d.TuplesScanned, d.FullScanFallbacks, n+3)
		}
		if got := w.Count("bestcost"); got != 50 {
			t.Errorf("%d path rows: %d bestcost rows, want 50", n, got)
		}
	}
}
