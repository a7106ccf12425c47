package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"secureblox/internal/datalog"
)

func installed(t *testing.T, udfs *UDFRegistry, src string) *Workspace {
	t.Helper()
	w := NewWorkspace(udfs)
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatalf("install: %v", err)
	}
	return w
}

func assertFacts(t *testing.T, w *Workspace, src string) *TxnResult {
	t.Helper()
	res, err := w.AssertProgramFacts(src)
	if err != nil {
		t.Fatalf("assert %q: %v", src, err)
	}
	return res
}

func TestTransitiveClosure(t *testing.T) {
	w := installed(t, nil, `
		reachable(X,Y) <- link(X,Y).
		reachable(X,Y) <- link(X,Z), reachable(Z,Y).
	`)
	assertFacts(t, w, `link(1,2). link(2,3). link(3,4).`)
	if n := w.Count("reachable"); n != 6 {
		t.Fatalf("want 6 reachable tuples, got %d: %v", n, w.Tuples("reachable"))
	}
	if !w.Contains("reachable", datalog.Tuple{datalog.Int64(1), datalog.Int64(4)}) {
		t.Error("1->4 missing")
	}
}

func TestIncrementalAssert(t *testing.T) {
	w := installed(t, nil, `
		reachable(X,Y) <- link(X,Y).
		reachable(X,Y) <- link(X,Z), reachable(Z,Y).
	`)
	assertFacts(t, w, `link(1,2).`)
	res := assertFacts(t, w, `link(2,3).`)
	// semi-naive: the second txn must add reachable(2,3) and reachable(1,3)
	if len(res.Inserted("reachable")) != 2 {
		t.Fatalf("want 2 new reachable, got %v", res.Inserted("reachable"))
	}
	if n := w.Count("reachable"); n != 3 {
		t.Fatalf("want 3 total, got %d", n)
	}
}

func TestFunctionalDependencyViolationRollsBack(t *testing.T) {
	w := installed(t, nil, `
		cost[X]=C -> int(X), int(C).
		follow[X]=C <- cost[X]=C.
	`)
	assertFacts(t, w, ``)
	if _, err := w.Assert([]Fact{
		{Pred: "cost", Tuple: datalog.Tuple{datalog.Int64(1), datalog.Int64(5)}},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := w.Assert([]Fact{
		{Pred: "cost", Tuple: datalog.Tuple{datalog.Int64(1), datalog.Int64(7)}},
	})
	var cv *ConstraintViolation
	if !errors.As(err, &cv) {
		t.Fatalf("want FD violation, got %v", err)
	}
	// rollback: original value intact, new one absent
	if v, ok := w.LookupFn("cost", datalog.Int64(1)); !ok || v.Int != 5 {
		t.Errorf("cost[1] should still be 5, got %v %v", v, ok)
	}
	if w.Count("cost") != 1 || w.Count("follow") != 1 {
		t.Errorf("rollback incomplete: cost=%d follow=%d", w.Count("cost"), w.Count("follow"))
	}
}

func TestConstraintViolationRollsBackWholeTxn(t *testing.T) {
	w := installed(t, nil, `
		employee(E) -> .
		salary(X) -> allowed(X).
		derived(X) <- salary(X).
	`)
	assertFacts(t, w, `allowed(10).`)
	assertFacts(t, w, `salary(10).`)
	_, err := w.AssertProgramFacts(`salary(99). salary(10).`)
	var cv *ConstraintViolation
	if !errors.As(err, &cv) {
		t.Fatalf("want violation, got %v", err)
	}
	if w.Count("salary") != 1 || w.Count("derived") != 1 {
		t.Errorf("whole txn should roll back: salary=%d derived=%d", w.Count("salary"), w.Count("derived"))
	}
}

// TestTxnConstraintsReadTheStateTheTransactionLeaves: a transaction's
// constraint check reads the rows it commits, not aggregate values it
// replaced again on the way. Twenty-four links among nodes 0–11 asserted in
// one transaction move hops[0] through 4 before it settles at 12, which the
// constraint accepts; a transaction that ends with hops[0] at 11 is rejected
// whole.
func TestTxnConstraintsReadTheStateTheTransactionLeaves(t *testing.T) {
	const src = `
		link(X, Y) -> int(X), int(Y).
		reach(X, Y) <- link(X, Y).
		reach(X, Z) <- link(X, Y), reach(Y, Z).
		hops[X] = C <- agg<<C = count(Y)>> reach(X, Y).
		hops[X] = C, X < 12 -> C > 11.
	`
	var chain, cycles []Fact
	for i := int64(0); i < 12; i++ {
		if i < 11 {
			chain = append(chain, Fact{Pred: "link", Tuple: tup(i, i+1)})
		}
		cycles = append(cycles, Fact{Pred: "link", Tuple: tup(i, (i+1)%12)}, Fact{Pred: "link", Tuple: tup(i, (i*5)%12)})
	}

	w := installed(t, nil, src)
	var cv *ConstraintViolation
	if _, err := w.Assert(chain); !errors.As(err, &cv) {
		t.Fatalf("a chain 0→…→11 leaves hops[0] = 11: want a violation, got %v", err)
	}
	if w.Count("link") != 0 || w.Count("reach") != 0 || w.Count("hops") != 0 {
		t.Errorf("the rejected chain left link=%d reach=%d hops=%d", w.Count("link"), w.Count("reach"), w.Count("hops"))
	}

	w = installed(t, nil, src)
	if _, err := w.Assert(cycles); err != nil {
		t.Fatalf("every hops[X] the transaction leaves is 12: %v", err)
	}
	for x := int64(0); x < 12; x++ {
		if v, ok := w.LookupFn("hops", datalog.Int64(x)); !ok || v.Int != 12 {
			t.Errorf("hops[%d] = %v, want 12", x, v)
		}
	}
}

func TestTypeDeclarationKindCheck(t *testing.T) {
	w := installed(t, nil, `
		age(P, A) -> string(P), int(A).
	`)
	if _, err := w.AssertProgramFacts(`age("bob", 30).`); err != nil {
		t.Fatal(err)
	}
	_, err := w.AssertProgramFacts(`age(1, 30).`)
	var cv *ConstraintViolation
	if !errors.As(err, &cv) {
		t.Fatalf("kind mismatch should be a violation, got %v", err)
	}
}

func TestPrincipalMembershipIsAuthentication(t *testing.T) {
	// The paper's "simple method of authentication": a says tuple whose
	// sender is not a known principal violates the principal-type
	// constraint and the batch rolls back.
	w := installed(t, nil, `
		said(P, X) -> principal(P), int(X).
		accepted(X) <- said(P, X).
	`)
	assertFacts(t, w, `principal(#alice).`)
	if _, err := w.AssertProgramFacts(`said(#alice, 1).`); err != nil {
		t.Fatal(err)
	}
	_, err := w.AssertProgramFacts(`said(#mallory, 2).`)
	var cv *ConstraintViolation
	if !errors.As(err, &cv) {
		t.Fatalf("unknown principal should violate, got %v", err)
	}
	if w.Count("accepted") != 1 {
		t.Errorf("accepted should have exactly the alice fact, got %d", w.Count("accepted"))
	}
}

func TestNegationStratified(t *testing.T) {
	w := installed(t, nil, `
		unconnected(X,Y) <- node_t(X), node_t(Y), !link(X,Y), X != Y.
	`)
	assertFacts(t, w, `node_t(1). node_t(2). node_t(3). link(1,2).`)
	if w.Contains("unconnected", datalog.Tuple{datalog.Int64(1), datalog.Int64(2)}) {
		t.Error("1-2 is linked")
	}
	if !w.Contains("unconnected", datalog.Tuple{datalog.Int64(1), datalog.Int64(3)}) {
		t.Error("1-3 should be unconnected")
	}
	if w.Contains("unconnected", datalog.Tuple{datalog.Int64(1), datalog.Int64(1)}) {
		t.Error("X != Y filter failed")
	}
}

// A rule reading its own head reaches its fixpoint: both orientations, once.
func TestSelfLoopRuleFixpoint(t *testing.T) {
	w := installed(t, nil, `
		p(X, Y) <- base(X, Y).
		p(X, Y) <- p(Y, X).
	`)
	assertFacts(t, w, `base(1, 2).`)
	if got := w.Count("p"); got != 2 {
		t.Errorf("self-loop fixpoint: %d tuples of p, want 2 (both orientations)", got)
	}
}

// An empty program installs: the workspace holds the builtin relations alone,
// and takes facts like any other, adopting the relations they name.
func TestEmptyInstall(t *testing.T) {
	w := NewWorkspace(nil)
	if err := w.Install(&datalog.Program{}); err != nil {
		t.Fatalf("empty install: %v", err)
	}
	if got, want := fmt.Sprint(w.Predicates()), fmt.Sprint(NewWorkspace(nil).Predicates()); got != want {
		t.Errorf("the empty program's workspace holds %s, want %s", got, want)
	}
	assertFacts(t, w, `q(1). q(2).`)
	if w.Count("q") != 2 {
		t.Errorf("the empty program's workspace took %v", w.Tuples("q"))
	}
}

func TestAggregationMin(t *testing.T) {
	w := installed(t, nil, `
		best[X]=C <- agg<< C=min(Cx) >> path2(X, Cx).
	`)
	assertFacts(t, w, `path2(1, 10). path2(1, 3). path2(2, 7).`)
	if v, ok := w.LookupFn("best", datalog.Int64(1)); !ok || v.Int != 3 {
		t.Errorf("best[1] = %v, want 3", v)
	}
	// a later, smaller value replaces
	assertFacts(t, w, `path2(1, 2).`)
	if v, _ := w.LookupFn("best", datalog.Int64(1)); v.Int != 2 {
		t.Errorf("best[1] should update to 2, got %v", v)
	}
	if w.Count("best") != 2 {
		t.Errorf("replacement must not leave stale tuples: %v", w.Tuples("best"))
	}
}

func TestAggregationVariants(t *testing.T) {
	w := installed(t, nil, `
		mx[X]=C <- agg<< C=max(V) >> obs(X, V).
		total[X]=C <- agg<< C=sum(V) >> obs(X, V).
		cnt[X]=C <- agg<< C=count(V) >> obs(X, V).
	`)
	assertFacts(t, w, `obs(1, 4). obs(1, 9). obs(1, 2).`)
	check := func(pred string, want int64) {
		t.Helper()
		if v, ok := w.LookupFn(pred, datalog.Int64(1)); !ok || v.Int != want {
			t.Errorf("%s[1] = %v, want %d", pred, v, want)
		}
	}
	check("mx", 9)
	check("total", 15)
	check("cnt", 3)
}

func TestAggregateChainsIntoRules(t *testing.T) {
	w := installed(t, nil, `
		best[X]=C <- agg<< C=min(V) >> obs(X, V).
		cheap(X) <- best[X]=C, C < 5.
	`)
	assertFacts(t, w, `obs(1, 10).`)
	if w.Count("cheap") != 0 {
		t.Fatal("10 is not cheap")
	}
	assertFacts(t, w, `obs(1, 3).`)
	if !w.Contains("cheap", datalog.Tuple{datalog.Int64(1)}) {
		t.Error("aggregate update should re-fire dependent rule")
	}
}

func TestHeadExistentialEntities(t *testing.T) {
	w := installed(t, nil, `
		pathvar(P) -> .
		pathvar(P), pcost[P]=C, psrc[P]=S <- link(S, D), C = 1.
	`)
	assertFacts(t, w, `link(10, 20). link(30, 40).`)
	if n := w.Count("pathvar"); n != 2 {
		t.Fatalf("want 2 entities, got %d", n)
	}
	// re-asserting the same base fact must not create a new entity (Skolem)
	assertFacts(t, w, `link(10, 20).`)
	if n := w.Count("pathvar"); n != 2 {
		t.Errorf("Skolemization broken: %d entities after re-assert", n)
	}
	if n := w.Count("pcost"); n != 2 {
		t.Errorf("want 2 pcost, got %d", n)
	}
}

func TestHeadExistentialWithoutEntityTypeFails(t *testing.T) {
	w := NewWorkspace(nil)
	prog, _ := datalog.Parse(`q(P, X) <- link(X, Y).`)
	if err := w.Install(prog); err == nil {
		t.Fatal("unbound head variable without entity type must fail compilation")
	}
}

// TestEntityNumberingIsPinned: entity ids travel on the wire, so their
// numbering is part of the protocol. Each entity type counts from EntityBase
// + 1 across every rule that mints it — here two rules mint pathvar, a third
// tok — in the order the evaluator derives; a rejected transaction's entities
// are not counted, and a retraction's recompute hands a rederived binding the
// id it had.
func TestEntityNumberingIsPinned(t *testing.T) {
	w := NewWorkspace(nil)
	w.EntityBase = 1000
	prog, err := datalog.Parse(`
		pathvar(P) -> .
		tok(T) -> .
		link(X, Y) -> int(X), int(Y).
		link(X, Y) -> Y < 100.
		pathvar(P), from[P] = X, to[P] = Y <- link(X, Y).
		pathvar(Q), far[Q] = Y <- link(X, Y), Y > 5.
		tok(T), loop[T] = X <- link(X, X).
		link(1, 2).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	ids := func() string {
		var out []string
		for _, pred := range []string{"from", "to", "far", "loop"} {
			for _, tp := range w.Tuples(pred) {
				out = append(out, pred+tp.String())
			}
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	check := func(when, want string) {
		t.Helper()
		if got := ids(); got != want {
			t.Fatalf("%s:\n got %s\nwant %s", when, got, want)
		}
	}
	check("after Bind", "from(pathvar:1001, 1) to(pathvar:1001, 2)")

	assertFacts(t, w, `link(3, 7). link(4, 4). link(6, 8).`)
	committed := "far(pathvar:1005, 7) far(pathvar:1006, 8) " +
		"from(pathvar:1001, 1) from(pathvar:1002, 3) from(pathvar:1003, 4) from(pathvar:1004, 6) " +
		"loop(tok:1001, 4) " +
		"to(pathvar:1001, 2) to(pathvar:1002, 7) to(pathvar:1003, 4) to(pathvar:1004, 8)"
	check("after a commit", committed)

	if _, err := w.AssertProgramFacts(`link(9, 9). link(10, 200).`); err == nil {
		t.Fatal("link(10, 200) must be rejected")
	}
	check("after a rejected transaction", committed)
	assertFacts(t, w, `link(11, 12). link(13, 13).`)
	committed = "far(pathvar:1005, 7) far(pathvar:1006, 8) far(pathvar:1009, 12) far(pathvar:1010, 13) " +
		"from(pathvar:1001, 1) from(pathvar:1002, 3) from(pathvar:1003, 4) from(pathvar:1004, 6) from(pathvar:1007, 11) from(pathvar:1008, 13) " +
		"loop(tok:1001, 4) loop(tok:1002, 13) " +
		"to(pathvar:1001, 2) to(pathvar:1002, 7) to(pathvar:1003, 4) to(pathvar:1004, 8) to(pathvar:1007, 12) to(pathvar:1008, 13)"
	check("after the rejected transaction's successor", committed)

	// Retracting link(3, 7) and asserting it again: every entity keeps its id,
	// the retracted binding's included.
	if err := w.Retract([]Fact{{Pred: "link", Tuple: tup(3, 7)}}); err != nil {
		t.Fatal(err)
	}
	check("after Retract", "far(pathvar:1006, 8) far(pathvar:1009, 12) far(pathvar:1010, 13) "+
		"from(pathvar:1001, 1) from(pathvar:1003, 4) from(pathvar:1004, 6) from(pathvar:1007, 11) from(pathvar:1008, 13) "+
		"loop(tok:1001, 4) loop(tok:1002, 13) "+
		"to(pathvar:1001, 2) to(pathvar:1003, 4) to(pathvar:1004, 8) to(pathvar:1007, 12) to(pathvar:1008, 13)")
	assertFacts(t, w, `link(3, 7).`)
	check("after Retract and reassertion", committed)
}

func TestArithmeticAndComparisons(t *testing.T) {
	w := installed(t, nil, `
		next(X, Y) <- num(X), Y = X + 1.
		big(X) <- num(X), X * 2 > 5.
	`)
	assertFacts(t, w, `num(1). num(3).`)
	if !w.Contains("next", datalog.Tuple{datalog.Int64(3), datalog.Int64(4)}) {
		t.Error("next(3,4) missing")
	}
	if w.Contains("big", datalog.Tuple{datalog.Int64(1)}) || !w.Contains("big", datalog.Tuple{datalog.Int64(3)}) {
		t.Errorf("big computed wrong: %v", w.Tuples("big"))
	}
}

func TestSingletonAndFuncAppTerm(t *testing.T) {
	w := installed(t, nil, `
		greet(P) <- knock(X), self[]=P.
	`)
	assertFacts(t, w, `self[]=#me.`)
	assertFacts(t, w, `knock(1).`)
	if !w.Contains("greet", datalog.Tuple{datalog.Prin("me")}) {
		t.Errorf("greet should contain #me: %v", w.Tuples("greet"))
	}
	// self[] used directly as a term
	w2 := installed(t, nil, `
		hello(X) <- knock(X), owner(self[]).
	`)
	assertFacts(t, w2, `self[]=#me. owner(#me).`)
	assertFacts(t, w2, `knock(7).`)
	if w2.Count("hello") != 1 {
		t.Errorf("FuncApp-in-arg rewrite broken: %v", w2.Tuples("hello"))
	}
}

func TestUDFInvocation(t *testing.T) {
	reg := NewUDFRegistry()
	if err := reg.Register(&FuncUDF{
		FName: "double", InArity: 1, OutArity: 1,
		Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
			return datalog.Int64(in[0].Int * 2), true, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(&FuncUDF{
		FName: "is_even", InArity: 1, OutArity: 0,
		Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
			return datalog.Value{}, in[0].Int%2 == 0, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	w := installed(t, reg, `
		twice(X, Y) <- num(X), double(X, Y).
		even(X) <- num(X), is_even(X).
	`)
	assertFacts(t, w, `num(2). num(3).`)
	if !w.Contains("twice", datalog.Tuple{datalog.Int64(3), datalog.Int64(6)}) {
		t.Errorf("double failed: %v", w.Tuples("twice"))
	}
	if w.Count("even") != 1 {
		t.Errorf("filter UDF failed: %v", w.Tuples("even"))
	}
}

func TestUDFAsConstraintFilter(t *testing.T) {
	reg := NewUDFRegistry()
	_ = reg.Register(&FuncUDF{
		FName: "verify_ok", InArity: 1, OutArity: 0,
		Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
			return datalog.Value{}, in[0].Str == "good", nil
		},
	})
	w := installed(t, reg, `
		msg(S) -> verify_ok(S).
	`)
	if _, err := w.AssertProgramFacts(`msg("good").`); err != nil {
		t.Fatal(err)
	}
	var cv *ConstraintViolation
	_, err := w.AssertProgramFacts(`msg("evil").`)
	if !errors.As(err, &cv) {
		t.Fatalf("UDF constraint should reject, got %v", err)
	}
	if w.Count("msg") != 1 {
		t.Error("rejected fact must not persist")
	}
}

// TestRetractRederivesSurvivors: a retraction keeps every fact the rules
// still derive from the base facts left — one the retracted fact also derived,
// and one that was itself asserted and is retracted.
func TestRetractRederivesSurvivors(t *testing.T) {
	w := installed(t, nil, `
		reachable(X,Y) <- link(X,Y).
		reachable(X,Y) <- link(X,Z), reachable(Z,Y).
	`)
	assertFacts(t, w, `link(1,2). link(2,3). link(1,3).`)
	if n := w.Count("reachable"); n != 3 { // 1-2, 2-3, 1-3 (doubly derived)
		t.Fatalf("setup: want 3 reachable, got %d: %v", n, w.Tuples("reachable"))
	}
	// retract link(2,3): reachable(2,3) goes; reachable(1,3) survives via
	// the direct link
	err := w.Retract([]Fact{{Pred: "link", Tuple: datalog.Tuple{datalog.Int64(2), datalog.Int64(3)}}})
	if err != nil {
		t.Fatal(err)
	}
	if w.Contains("reachable", datalog.Tuple{datalog.Int64(2), datalog.Int64(3)}) {
		t.Error("reachable(2,3) should be deleted")
	}
	if !w.Contains("reachable", datalog.Tuple{datalog.Int64(1), datalog.Int64(3)}) {
		t.Error("reachable(1,3) should be rederived from the direct link")
	}
	if w.Contains("link", datalog.Tuple{datalog.Int64(2), datalog.Int64(3)}) {
		t.Error("base fact should be gone")
	}

	// p(1) is asserted and derived from q(1): retracting the assertion
	// leaves it, and r(1) with it, as a fresh build without p(1) holds them.
	w = installed(t, nil, `
		p(X) <- q(X).
		r(X) <- p(X).
	`)
	assertFacts(t, w, `q(1). p(1).`)
	if err := w.Retract([]Fact{{Pred: "p", Tuple: datalog.Tuple{datalog.Int64(1)}}}); err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"p", "r"} {
		if !w.Contains(pred, datalog.Tuple{datalog.Int64(1)}) {
			t.Errorf("%s(1) should survive: q(1) still derives it", pred)
		}
	}
	// It survives as a derived row: once q(1) goes, nothing holds it.
	if err := w.Retract([]Fact{{Pred: "q", Tuple: datalog.Tuple{datalog.Int64(1)}}}); err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"p", "r"} {
		if w.Contains(pred, datalog.Tuple{datalog.Int64(1)}) {
			t.Errorf("%s(1) should go with q(1): its assertion was retracted", pred)
		}
	}
}

func TestRetractUpdatesAggregates(t *testing.T) {
	w := installed(t, nil, `
		best[X]=C <- agg<< C=min(V) >> obs(X, V).
	`)
	assertFacts(t, w, `obs(1, 3). obs(1, 8).`)
	if err := w.Retract([]Fact{{Pred: "obs", Tuple: datalog.Tuple{datalog.Int64(1), datalog.Int64(3)}}}); err != nil {
		t.Fatal(err)
	}
	if v, ok := w.LookupFn("best", datalog.Int64(1)); !ok || v.Int != 8 {
		t.Errorf("best[1] should become 8 after retraction, got %v ok=%v", v, ok)
	}
	if err := w.Retract([]Fact{{Pred: "obs", Tuple: datalog.Tuple{datalog.Int64(1), datalog.Int64(8)}}}); err != nil {
		t.Fatal(err)
	}
	if w.Count("best") != 0 {
		t.Errorf("empty group should disappear: %v", w.Tuples("best"))
	}
}

// A rejected Install leaves a new workspace behind: no rule, no relation a
// head declared — r with arity 2 must not outlive it, or the corrected r(X) no
// longer fits — and no row or text of the program's. It is rejected when it
// does not compile, and when it compiles but its own facts violate a
// constraint once its rules have derived from them. The error names the
// literal at fault as the source writes it.
func TestInstallRollbackOnBadProgram(t *testing.T) {
	w := NewWorkspace(nil)
	preds := fmt.Sprint(w.Predicates())
	for _, c := range []struct{ src, want string }{
		{`p(X) <- q(X). r(Y, Z) <- q(Y).`, "head variable Z is unbound"},
		{`p(X) <- q(X). r(Y, Z) <- q(Y), q(Z). q("a"). q("b"). r(Y, Z) -> Y = Z.`, "r(Y, Z) -> Y = Z."},
		{`p(X) <- !q(X), r(Y).`, "(first: !q(X))"},
	} {
		src := c.src
		bad, err := datalog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Install(bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Install: %v, want an error naming %s", src, err, c.want)
		}
		if w.prog != builtin || len(w.syms.spans) > 0 {
			t.Errorf("%s: the failed install left its program or its text behind", src)
		}
		if got := fmt.Sprint(w.Predicates()); got != preds {
			t.Errorf("%s: the failed install changed the predicates: %s, was %s", src, got, preds)
		}
	}
	fixed, _ := datalog.Parse(`p(X) <- q(X). r(X) <- q(X). q(1).`)
	if err := w.Install(fixed); err != nil {
		t.Fatalf("the corrected program: %v", err)
	}
	if w.Count("p") != 1 || w.Count("r") != 1 {
		t.Errorf("the corrected program derived p %v, r %v", w.Tuples("p"), w.Tuples("r"))
	}
}

// Install checks every constraint over the data its program brings.
func TestInstallChecksExistingData(t *testing.T) {
	prog, _ := datalog.Parse(`resource(5). resource(X) -> registered(X).`)
	var v *ConstraintViolation
	if err := NewWorkspace(nil).Install(prog); !errors.As(err, &v) {
		t.Fatalf("installing a constraint its own facts violate: %v, want a constraint violation", err)
	}
}

// A workspace runs the one program it was bound: a second Install or Bind —
// or a first one after a fact was asserted — is refused, and the predicates,
// rows and rules stay as they were.
func TestInstallNeedsANewWorkspace(t *testing.T) {
	more, _ := datalog.Parse(`r(X) <- q(X). s(1).`)
	compiled, err := Compile(more, NewUDFRegistry())
	if err != nil {
		t.Fatal(err)
	}
	asserted := NewWorkspace(nil)
	assertFacts(t, asserted, `q(1).`)
	for name, w := range map[string]*Workspace{
		"installed": installed(t, nil, `p(X) <- q(X). q(1).`),
		"asserted":  asserted,
	} {
		rules, want := len(w.prog.rules), storeSnapshot(t, w)
		if err := w.Install(more); err == nil {
			t.Errorf("%s: a second Install succeeded", name)
		}
		if err := w.Bind(compiled); err == nil {
			t.Errorf("%s: a second Bind succeeded", name)
		}
		if got := storeSnapshot(t, w); got != want || len(w.prog.rules) != rules {
			t.Errorf("%s: the refused program changed the workspace:\n--- before ---\n%s\n--- after ---\n%s", name, want, got)
		}
		assertFacts(t, w, `q(2).`)
		if w.Count("q") != 2 || w.Count("r") != 0 {
			t.Errorf("%s: after the refusal q = %v, r = %v", name, w.Tuples("q"), w.Tuples("r"))
		}
	}
}

func TestMultiHeadRule(t *testing.T) {
	w := installed(t, nil, `
		a(X), b(X, Y) <- src(X, Y).
	`)
	assertFacts(t, w, `src(1, 2).`)
	if w.Count("a") != 1 || w.Count("b") != 1 {
		t.Errorf("multi-head derivation failed: a=%d b=%d", w.Count("a"), w.Count("b"))
	}
}

func TestWildcardInNegation(t *testing.T) {
	w := installed(t, nil, `
		leaf(X) <- node_t(X), !edge(X, _).
	`)
	assertFacts(t, w, `node_t(1). node_t(2). edge(1, 5).`)
	if w.Contains("leaf", datalog.Tuple{datalog.Int64(1)}) {
		t.Error("1 has an edge")
	}
	if !w.Contains("leaf", datalog.Tuple{datalog.Int64(2)}) {
		t.Error("2 is a leaf")
	}
}

func TestParameterizedPredicatesAreDistinct(t *testing.T) {
	w := installed(t, nil, `
		out(P) <- trust['tableA](P).
	`)
	assertFacts(t, w, `trust['tableA](#a). trust['tableB](#b).`)
	if w.Count("out") != 1 {
		t.Errorf("says$tableA and $tableB must be distinct relations: %v", w.Tuples("out"))
	}
	if w.Count("trust$tableB") != 1 {
		t.Errorf("parameterized fact went to wrong relation")
	}
}

func TestStringConcat(t *testing.T) {
	w := installed(t, nil, `
		full(N) <- name_part(A, B), N = A + B.
	`)
	assertFacts(t, w, `name_part("foo", "bar").`)
	if !w.Contains("full", datalog.Tuple{datalog.String_("foobar")}) {
		t.Errorf("string concat failed: %v", w.Tuples("full"))
	}
}

func TestLargeFixpointStress(t *testing.T) {
	w := installed(t, nil, `
		reachable(X,Y) <- link(X,Y).
		reachable(X,Y) <- link(X,Z), reachable(Z,Y).
	`)
	var facts []Fact
	for i := 0; i < 200; i++ {
		facts = append(facts, Fact{Pred: "link", Tuple: datalog.Tuple{datalog.Int64(int64(i)), datalog.Int64(int64(i + 1))}})
	}
	if _, err := w.Assert(facts); err != nil {
		t.Fatal(err)
	}
	want := 201 * 200 / 2
	if n := w.Count("reachable"); n != want {
		t.Errorf("chain closure: want %d, got %d", want, n)
	}
}

func TestConstraintWithExistentialRHS(t *testing.T) {
	// "every order needs SOME approval" — RHS variable is existential
	w := installed(t, nil, `
		order(O) -> approval(O, _).
	`)
	assertFacts(t, w, `approval(1, "boss").`)
	if _, err := w.AssertProgramFacts(`order(1).`); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AssertProgramFacts(`order(2).`); err == nil {
		t.Fatal("order without approval should violate")
	}
}

func ExampleWorkspace_Assert() {
	w := NewWorkspace(nil)
	prog, _ := datalog.Parse(`
		reachable(X,Y) <- link(X,Y).
		reachable(X,Y) <- link(X,Z), reachable(Z,Y).
	`)
	_ = w.Install(prog)
	_, _ = w.AssertProgramFacts(`link(1,2). link(2,3).`)
	fmt.Println(w.Count("reachable"))
	// Output: 3
}
