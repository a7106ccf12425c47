package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"secureblox/internal/datalog"
)

// checkDeltaPlan verifies the shape every delta-first plan must have: its
// location lookups are each one functional probe of self or principal_node,
// the delta atom leads with no access path of its own, every later step that
// needs one has it, no later match starts from zero bound columns unless it
// shares no variable with what ran before it, and the lookups and the steps
// together run exactly the literals of the body's first plan — what a full
// evaluation runs — against the same slot numbering.
func checkDeltaPlan(first []step, plan deltaPlan, slotNames []string) error {
	if len(plan.pre)+len(plan.steps) != len(first) {
		return fmt.Errorf("plan has %d lookups and %d steps, the first plan %d", len(plan.pre), len(plan.steps), len(first))
	}
	lead := &plan.steps[0]
	if lead.kind != stepMatch {
		return fmt.Errorf("step 0 is not a match (%s)", describeStep(*lead))
	}
	if lead.probe != noProbe || len(lead.boundCols) != 0 {
		return fmt.Errorf("delta atom %s carries a stored-relation access path", lead.atom)
	}
	want := map[string]int{}
	for i := range first {
		want[describeStep(first[i])]++
	}
	seenVars := map[string]bool{}
	for i := range plan.pre {
		s := &plan.pre[i]
		if s.kind != stepMatch || !isLocation(s.pred) || s.probe != 1 {
			return fmt.Errorf("lookup %d: %s is not a functional probe of a location relation", i, describeStep(*s))
		}
		want[describeStep(*s)]--
		datalog.AtomVars(s.atom, seenVars)
	}
	for i := range plan.steps {
		s := &plan.steps[i]
		want[describeStep(*s)]--
		for j := range s.args {
			if a := &s.args[j]; a.kind == ctVar && slotNames[a.slot] != a.name {
				return fmt.Errorf("step %d: variable %s compiled to slot %d (%s)", i, a.name, a.slot, slotNames[a.slot])
			}
		}
		if i > 0 && (s.kind == stepMatch || s.kind == stepNeg) {
			vars := map[string]bool{}
			datalog.AtomVars(s.atom, vars)
			shares := false
			for v := range vars {
				shares = shares || seenVars[v]
			}
			if s.kind == stepMatch && len(s.boundCols) == 0 && shares {
				return fmt.Errorf("step %d: %s shares variables with earlier steps but probes nothing", i, s.atom)
			}
			partial := len(s.boundCols) > 0 && len(s.boundCols) < len(s.args)
			if partial && s.probe == noProbe {
				return fmt.Errorf("step %d: %s has bound columns %v and no index", i, s.atom, s.boundCols)
			}
		}
		if s.kind == stepMatch || s.kind == stepUDF {
			datalog.AtomVars(s.atom, seenVars)
		}
		if s.kind == stepCmp && s.op == "=" {
			datalog.VarsOf(s.l, seenVars)
			datalog.VarsOf(s.r, seenVars)
		}
	}
	for lit, n := range want {
		if n != 0 {
			return fmt.Errorf("literal %s: the first plan and this one disagree by %d", lit, n)
		}
	}
	return nil
}

// firstSteps is a body's first plan, location lookups included.
func firstSteps(plans []deltaPlan) []step {
	return append(slices.Clone(plans[0].pre), plans[0].steps...)
}

// checkInstalledDeltaPlans applies checkDeltaPlan to every rule and
// constraint of a workspace and requires one plan per positive atom.
func checkInstalledDeltaPlans(w *Workspace) error {
	check := func(what string, plans []deltaPlan, slotNames []string) error {
		first, matches := firstSteps(plans), 0
		for i := range first {
			if first[i].kind == stepMatch {
				matches++
			}
		}
		if len(plans) != matches {
			return fmt.Errorf("%s: %d delta plans for %d positive atoms", what, len(plans), matches)
		}
		for k, plan := range plans {
			if err := checkDeltaPlan(first, plan, slotNames); err != nil {
				return fmt.Errorf("%s: delta plan %d: %w", what, k, err)
			}
		}
		return nil
	}
	for _, r := range w.prog.rules {
		if err := check("rule "+r.String(), r.deltaPlans, r.slotNames); err != nil {
			return err
		}
	}
	for _, c := range w.prog.constraints {
		if err := check("constraint "+c.String(), c.lhsDeltaPlans, c.slotNames); err != nil {
			return err
		}
	}
	return nil
}

// TestDeltaPlanShape: every rule and constraint LHS compiles one delta-first
// plan per positive atom, and the recursive closure rule probes link from the
// reachable delta instead of scanning it.
func TestDeltaPlanShape(t *testing.T) {
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(BenchClosureSrc + BenchMultijoinSrc + `
		two(X,Y) <- link(X,Z), link(Z,Y), X != Y, !blocked(X,_).
		same(X) <- link(X,X), tag(X, 3).
		lonely(X,Y) <- tag(X,_), blocked(Y,_).
		best[X]=C <- agg<< C=min(V) >> tag(X,V), link(X,_).
		link(X,Y), tag(Y,V) -> V >= 0, tag(X,_).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	if err := checkInstalledDeltaPlans(w); err != nil {
		t.Fatal(err)
	}
	rec := w.prog.rules[1]
	var fromReachable []step
	for _, plan := range rec.deltaPlans {
		if plan.steps[0].pred == "reachable" {
			fromReachable = plan.steps
		}
	}
	if fromReachable == nil {
		t.Fatal("recursive rule has no plan led by reachable")
	}
	if s := fromReachable[1]; s.pred != "link" || fmt.Sprint(s.boundCols) != "[1]" || s.probe == noProbe {
		t.Fatalf("Δreachable plan continues with %s bound %v (index %v), want link probed on column 1",
			s.pred, s.boundCols, s.probe != noProbe)
	}
}

// TestDeltaPlanShapeSharesFunctionalApplications: a rule or constraint that
// writes the same functional application several times — the generated export
// policy says self[] three times — gets one atom for it, so one step per plan
// and one delta plan, not three of each. The rules below are that policy's
// export, import and authentication shapes.
func TestDeltaPlanShapeSharesFunctionalApplications(t *testing.T) {
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(`
		export(N, L, P) <- says(self[], U, P), sig(self[], U, P, S),
			principal_node[U]=N, principal_node[self[]]=L.
		says(U, self[], P), sig(U, self[], P, S) <- export(N, L, P), inbox(P, S),
			principal_node[self[]]=N, principal_node[U]=L.
		says(U, self[], P) -> trusted(self[], U), principal_node[self[]]=N, !banned(self[], N).
		other(X, Y) <- pair[_]=X, pair[_]=Y.
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	if err := checkInstalledDeltaPlans(w); err != nil {
		t.Fatal(err)
	}
	count := func(steps []step, pred string) (n int) {
		for i := range steps {
			if steps[i].kind == stepMatch && steps[i].pred == pred {
				n++
			}
		}
		return n
	}
	// says, sig, self, principal_node ×2 / export, inbox, self, principal_node ×2.
	// Every plan runs each of them once, a delta plan's location lookups
	// included. Those are self[] and principal_node[self[]] wherever another
	// atom leads; principal_node[U] stays a step, its key unknown before the
	// delta binds U.
	for i, r := range w.prog.rules[:2] {
		if len(r.deltaPlans) != 5 {
			t.Errorf("rule %d: %d delta plans, want 5:\n%s", i, len(r.deltaPlans), r)
		}
		for k, plan := range r.deltaPlans {
			all := append(slices.Clone(plan.pre), plan.steps...)
			if n, m := count(all, "self"), count(all, "principal_node"); n != 1 || m != 2 {
				t.Errorf("rule %d, plan %d: %d self steps and %d principal_node steps, want 1 and 2", i, k, n, m)
			}
			pre := make([]string, len(plan.pre))
			for j := range plan.pre {
				pre[j] = plan.pre[j].atom.String()
			}
			here := fmt.Sprintf("principal_node[$t1]=%s", []string{"L", "N"}[i])
			want := "[self[]=$t1 " + here + "]"
			switch lead := plan.steps[0].atom.String(); {
			case lead == "self[]=$t1":
				want = "[]"
			case lead == here:
				want = "[self[]=$t1]"
			}
			if got := fmt.Sprint(pre); got != want {
				t.Errorf("rule %d, plan led by %s: location lookups %s, want %s", i, plan.steps[0].atom, got, want)
			}
		}
	}
	// The constraint's right-hand side reads the variable its left-hand side
	// bound: no second self atom there either.
	c := w.prog.constraints[0]
	if n, m := count(firstSteps(c.lhsDeltaPlans), "self"), count(c.rhsSteps, "self"); n != 1 || m != 0 || len(c.lhsDeltaPlans) != 2 {
		t.Errorf("constraint: %d self steps left, %d right, %d delta plans, want 1, 0 and 2", n, m, len(c.lhsDeltaPlans))
	}
	// A wildcard key names no one value: two pair[_] stay two atoms.
	if r := w.prog.rules[2]; count(firstSteps(r.deltaPlans), "pair") != 2 {
		t.Errorf("pair[_] written twice compiled to %d atoms, want 2", count(firstSteps(r.deltaPlans), "pair"))
	}

	// Shared or not, the answers are the same.
	assertFacts(t, w, `self[]=#me. principal_node[#me]=@"a:1". principal_node[#you]=@"b:2".
		trusted(#me, #you). says(#me, #you, 7). sig(#me, #you, 7, 1).`)
	if got := fmt.Sprint(w.Tuples("export")); got != `[(@"b:2", @"a:1", 7)]` {
		t.Errorf("export = %s", got)
	}
	assertFacts(t, w, `inbox(8, 2). trusted(#me, #him). principal_node[#him]=@"c:3". export(@"a:1", @"c:3", 8).`)
	if !w.Contains("sig", datalog.Tuple{datalog.Prin("him"), datalog.Prin("me"), datalog.Int64(8), datalog.Int64(2)}) {
		t.Errorf("import rule derived sig = %v", w.Tuples("sig"))
	}
}

// TestScanWorkTracksDeltaNotRelation: tuples scanned per tuple inserted by a
// single-edge Assert must not grow with the stored relations. The closure
// rule's first plan leads with link, so an evaluator that ran that plan for
// the reachable delta would scan every link per round — four times the work
// on the four times larger graph.
func TestScanWorkTracksDeltaNotRelation(t *testing.T) {
	perInsert := func(edges int) float64 {
		nodes := edges * 5 / 4 // sparse: closures stay small at both sizes
		w := NewWorkspace(nil)
		prog, err := datalog.Parse(BenchClosureSrc)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Install(prog); err != nil {
			t.Fatal(err)
		}
		facts, want := BenchClosureInput(nodes, edges, 7)
		if _, err := w.Assert(facts); err != nil {
			t.Fatal(err)
		}
		if got := w.Count("reachable"); got != want {
			t.Fatalf("closure of %d edges: %d tuples, want %d", edges, got, want)
		}
		rng := rand.New(rand.NewSource(11))
		var scanned, inserted int64
		for i := 0; i < 300; i++ {
			edge := datalog.Tuple{datalog.Int64(int64(rng.Intn(nodes))), datalog.Int64(int64(rng.Intn(nodes)))}
			before := w.Stats()
			res, err := w.Assert([]Fact{{Pred: "link", Tuple: edge}})
			if err != nil {
				t.Fatal(err)
			}
			d := w.Stats().Sub(before)
			if d.FullScanFallbacks != 0 {
				t.Fatalf("%d full-scan fallbacks", d.FullScanFallbacks)
			}
			scanned += d.TuplesScanned
			for _, pred := range w.Predicates() {
				inserted += int64(len(res.Inserted(pred)))
			}
		}
		if inserted == 0 || scanned == 0 {
			t.Fatalf("%d edges: scanned %d, inserted %d", edges, scanned, inserted)
		}
		t.Logf("%d edges: %d tuples scanned for %d inserted", edges, scanned, inserted)
		return float64(scanned) / float64(inserted)
	}
	small, large := perInsert(1000), perInsert(4000)
	if large > 2*small || small > 2*large {
		t.Errorf("tuples scanned per tuple inserted: %.2f at 1000 edges, %.2f at 4000 — work follows the relation, not the delta",
			small, large)
	}
}

// TestIndexOnlyASetupLedPlanProbesIsNeverBuilt: an index is built by its first
// probe of a non-empty relation, not when a plan registers it. The rule here is
// led by gate, a setup relation asserted with the program the way self[] and
// principal_node are: its gate-led delta plan registers an index on edge's
// first column, and it is the only plan that probes it. A run of transactions
// that never changes gate never builds that index, and no probe falls back to
// a scan for want of it; the first change to gate builds it with every row.
func TestIndexOnlyASetupLedPlanProbesIsNeverBuilt(t *testing.T) {
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(`
		hop(X, Y) <- gate(X), edge(X, Y).
		gate(1). gate(2).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	edge := w.relation("edge")
	var x *hashIndex
	for _, idx := range edge.idx[1:] {
		if slices.Equal(idx.cols, []int{0}) {
			x = idx
		}
	}
	if x == nil {
		t.Fatalf("the gate-led plan registered no index on edge's first column: %d indexes", len(edge.idx))
	}
	before := w.Stats()
	for i := int64(0); i < 50; i++ {
		if _, err := w.Assert([]Fact{{Pred: "edge", Tuple: tup(i%5, i)}}); err != nil {
			t.Fatal(err)
		}
	}
	d := w.Stats().Sub(before)
	if d.FullScanFallbacks != 0 || d.IndexProbes == 0 {
		t.Errorf("50 edge transactions: %d full-scan fallbacks, %d probes (want 0 and some)", d.FullScanFallbacks, d.IndexProbes)
	}
	if !x.unbuilt || x.heads != nil || x.links != nil {
		t.Errorf("an index only the gate-led plan probes was built by transactions that never changed gate")
	}
	if got := w.Count("hop"); got != 20 {
		t.Fatalf("%d hops, want 20", got)
	}
	if _, err := w.Assert([]Fact{{Pred: "gate", Tuple: tup(3)}}); err != nil {
		t.Fatal(err)
	}
	if got := w.Count("hop"); x.unbuilt || got != 30 {
		t.Errorf("after gate(3): index unbuilt %v, %d hops, want built and 30", x.unbuilt, got)
	}
	if err := checkStore(edge); err != nil {
		t.Error(err)
	}
}

// TestBodyWithNoPositiveAtom: a body with no positive atom has one plan,
// ordered from nothing, which only a full evaluation runs — no relation
// change leads it. A rule of that shape derives at Install; a constraint whose
// left-hand side has no atom is checked at Install and by a retraction's full
// verification, never by a transaction's check.
func TestBodyWithNoPositiveAtom(t *testing.T) {
	w := installed(t, nil, `q(1) <- 1 < 2.`)
	if !w.Contains("q", tup(1)) {
		t.Errorf("q(1) <- 1 < 2. derived %v at Install", w.Tuples("q"))
	}

	prog, err := datalog.Parse(`1 < 2 -> !bad(1).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewWorkspace(nil).Install(prog); err != nil {
		t.Fatalf("Install over a database without bad(1): %v", err)
	}
	withBad, err := datalog.Parse(`1 < 2 -> !bad(1). bad(1).`)
	if err != nil {
		t.Fatal(err)
	}
	var v *ConstraintViolation
	if err := NewWorkspace(nil).Install(withBad); !errors.As(err, &v) {
		t.Fatalf("Install with bad(1): %v, want the constraint violated", err)
	}
	w = installed(t, nil, `1 < 2 -> !bad(1).`)
	assertFacts(t, w, `bad(1). other(2).`)
	if err := w.Retract([]Fact{{Pred: "other", Tuple: tup(2)}}); !errors.As(err, &v) {
		t.Fatalf("Retract's full verification over bad(1): %v, want the constraint violated", err)
	}
}

// TestPlansListDeltaOrders: Program.Plans shows the orders that actually
// run, per positive atom the delta-first order that leads with it and defers
// the filter until its operands are bound; a full evaluation runs the first.
//
// A delta plan led by anything but the node's location opens with its
// location lookups, self[] and principal_node[self[]], resolved once before
// the leading scan; the list still holds every body literal.
func TestPlansListDeltaOrders(t *testing.T) {
	prog, err := datalog.Parse(`reach(X, Y) <- link(X, Z), reach(Z, Y), X != Y.
out(Y) <- reach(X, Y), at(principal_node[self[]], X).`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(prog, NewUDFRegistry())
	if err != nil {
		t.Fatal(err)
	}
	describe := func(plan []PlanStep) string {
		out := make([]string, len(plan))
		for i, s := range plan {
			out[i] = fmt.Sprint(s.Atom)
			if s.Kind == StepCmp {
				out[i] = fmt.Sprintf("%s %s %s", s.L, s.Op, s.R)
			}
		}
		return strings.Join(out, " ; ")
	}
	plans := p.Plans()
	for i, want := range [][]string{{
		"link(X, Z) ; reach(Z, Y) ; X != Y",
		"reach(Z, Y) ; link(X, Z) ; X != Y",
	}, {
		"self[]=$t1 ; principal_node[$t1]=$t2 ; reach(X, Y) ; at($t2, X)",
		"self[]=$t1 ; principal_node[$t1]=$t2 ; at($t2, X) ; reach(X, Y)",
		"self[]=$t1 ; principal_node[$t1]=$t2 ; at($t2, X) ; reach(X, Y)",
		"self[]=$t1 ; principal_node[$t1]=$t2 ; at($t2, X) ; reach(X, Y)",
	}} {
		got := plans[i].DeltaPlans
		if len(got) != len(want) {
			t.Fatalf("rule %d: %d delta orders, want %d", i, len(got), len(want))
		}
		for k, w := range want {
			if d := describe(got[k]); d != w {
				t.Errorf("rule %d: delta order %d = %s, want %s", i, k, d, w)
			}
		}
	}
}
