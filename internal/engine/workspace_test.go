package engine

import (
	"errors"
	"fmt"
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

func TestUnstratifiedDetection(t *testing.T) {
	w := NewWorkspace(nil)
	w.StrictStratification = true
	prog, err := datalog.Parse(`p(X) <- q(X), !p(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err == nil {
		t.Fatal("strict mode should reject unstratified negation")
	}
	w2 := NewWorkspace(nil)
	prog2, _ := datalog.Parse(`p(X) <- q(X), !r(X). r(X) <- p(X).`)
	if err := w2.Install(prog2); err != nil {
		t.Fatal(err)
	}
	if len(w2.Unstratified) == 0 {
		t.Error("lenient mode should record a diagnostic")
	}
}

// TestStrictStratificationRejectsMutualNegation: two rules mutually
// recursive through negation have no stratified model; strict mode must
// refuse to install them, diagnostic mode records them.
func TestStrictStratificationRejectsMutualNegation(t *testing.T) {
	prog, err := datalog.Parse(`
		p(X) <- q(X), !r(X).
		r(X) <- s(X), !p(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkspace(nil)
	w.StrictStratification = true
	if err := w.Install(prog); err == nil {
		t.Fatal("mutually recursive negation was accepted under StrictStratification")
	}
	w2 := NewWorkspace(nil)
	if err := w2.Install(prog); err != nil {
		t.Fatalf("diagnostic mode should accept: %v", err)
	}
	if len(w2.Unstratified) == 0 {
		t.Fatal("expected unstratified diagnostics")
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

// An Install with no rules must leave a workspace that still installs and
// evaluates a follow-up program.
func TestEmptyInstall(t *testing.T) {
	w := NewWorkspace(nil)
	if err := w.Install(&datalog.Program{}); err != nil {
		t.Fatalf("empty install: %v", err)
	}
	prog, err := datalog.Parse(`p(X) <- q(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatalf("install after empty: %v", err)
	}
	assertFacts(t, w, `q(1).`)
	if w.Count("p") != 1 {
		t.Errorf("rule installed after an empty program derived %d tuples, want 1", w.Count("p"))
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

func TestRetractDRed(t *testing.T) {
	w := installed(t, nil, `
		reachable(X,Y) <- link(X,Y).
		reachable(X,Y) <- link(X,Z), reachable(Z,Y).
	`)
	assertFacts(t, w, `link(1,2). link(2,3). link(1,3).`)
	if n := w.Count("reachable"); n != 3 { // 1-2, 2-3, 1-3 (doubly derived)
		t.Fatalf("setup: want 3 reachable, got %d: %v", n, w.Tuples("reachable"))
	}
	// retract link(2,3): reachable(2,3) goes; reachable(1,3) survives via
	// direct link (DRed rederivation)
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

func TestInstallRollbackOnBadProgram(t *testing.T) {
	w := NewWorkspace(nil)
	prog, _ := datalog.Parse(`p(X) <- q(X).`)
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	n := len(w.rules)
	bad, _ := datalog.Parse(`r(Y, Z) <- q(Y).`) // unbound Z, no entity
	if err := w.Install(bad); err == nil {
		t.Fatal("install should fail")
	}
	if len(w.rules) != n {
		t.Error("failed install must not leave rules behind")
	}
	// workspace still usable
	assertFacts(t, w, `q(1).`)
	if w.Count("p") != 1 {
		t.Error("workspace broken after failed install")
	}
}

func TestInstallChecksExistingData(t *testing.T) {
	w := installed(t, nil, ``)
	assertFacts(t, w, `resource(5).`)
	prog, _ := datalog.Parse(`resource(X) -> registered(X).`)
	if err := w.Install(prog); err == nil {
		t.Fatal("installing a constraint violated by existing data must fail")
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
