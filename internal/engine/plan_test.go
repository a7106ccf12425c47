package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"secureblox/internal/datalog"
)

// checkDeltaPlan verifies the shape every delta-first plan must have: the
// delta atom leads with no access path of its own, every later step that
// needs one has it, no later match starts from zero bound columns unless it
// shares no variable with what ran before it, and the plan runs exactly the
// literals of the static plan against the same slot numbering.
func checkDeltaPlan(static, plan []step, slotNames []string) error {
	if len(plan) != len(static) {
		return fmt.Errorf("plan has %d steps, static plan %d", len(plan), len(static))
	}
	lead := &plan[0]
	if lead.kind != stepMatch {
		return fmt.Errorf("step 0 is not a match (%s)", describeStep(*lead))
	}
	if lead.probeIdx != nil || len(lead.boundCols) != 0 {
		return fmt.Errorf("delta atom %s carries a stored-relation access path", lead.atom)
	}
	want := map[string]int{}
	for i := range static {
		want[describeStep(static[i])]++
	}
	seenVars := map[string]bool{}
	for i := range plan {
		s := &plan[i]
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
			if partial && s.probeIdx == nil {
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
			return fmt.Errorf("literal %s: static and delta plan disagree by %d", lit, n)
		}
	}
	return nil
}

// checkInstalledDeltaPlans applies checkDeltaPlan to every rule and
// constraint of a workspace and requires one plan per positive atom.
func checkInstalledDeltaPlans(w *Workspace) error {
	check := func(what string, static []step, plans [][]step, slotNames []string) error {
		matches := 0
		for i := range static {
			if static[i].kind == stepMatch {
				matches++
			}
		}
		if len(plans) != matches {
			return fmt.Errorf("%s: %d delta plans for %d positive atoms", what, len(plans), matches)
		}
		for k, plan := range plans {
			if err := checkDeltaPlan(static, plan, slotNames); err != nil {
				return fmt.Errorf("%s: delta plan %d: %w", what, k, err)
			}
		}
		return nil
	}
	for _, r := range append(append([]*CompiledRule(nil), w.rules...), w.aggRules...) {
		if err := check("rule "+r.String(), r.steps, r.deltaPlans, r.slotNames); err != nil {
			return err
		}
	}
	for _, c := range w.constraints {
		if err := check("constraint "+c.String(), c.lhsSteps, c.lhsDeltaPlans, c.slotNames); err != nil {
			return err
		}
	}
	return nil
}

// TestDeltaPlanShape: every rule and constraint LHS compiles one delta-first
// plan per positive atom, and the recursive closure rule — whose static order
// puts link first — probes link from the reachable delta instead of scanning
// it.
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
	rec := w.rules[1]
	if got := rec.steps[0].pred; got != "link" {
		t.Fatalf("static order of the recursive rule starts with %s, want link", got)
	}
	var fromReachable []step
	for _, plan := range rec.deltaPlans {
		if plan[0].pred == "reachable" {
			fromReachable = plan
		}
	}
	if fromReachable == nil {
		t.Fatal("recursive rule has no plan led by reachable")
	}
	if s := fromReachable[1]; s.pred != "link" || fmt.Sprint(s.boundCols) != "[1]" || s.probeIdx == nil {
		t.Fatalf("Δreachable plan continues with %s bound %v (index %v), want link probed on column 1",
			s.pred, s.boundCols, s.probeIdx != nil)
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
	for i, r := range w.rules[:2] {
		if len(r.deltaPlans) != 5 {
			t.Errorf("rule %d: %d delta plans, want 5:\n%s", i, len(r.deltaPlans), r)
		}
		for k, plan := range append([][]step{r.steps}, r.deltaPlans...) {
			if n, m := count(plan, "self"), count(plan, "principal_node"); n != 1 || m != 2 {
				t.Errorf("rule %d, plan %d: %d self steps and %d principal_node steps, want 1 and 2", i, k, n, m)
			}
		}
	}
	// The constraint's right-hand side reads the variable its left-hand side
	// bound: no second self atom there either.
	c := w.constraints[0]
	if n, m := count(c.lhsSteps, "self"), count(c.rhsSteps, "self"); n != 1 || m != 0 || len(c.lhsDeltaPlans) != 2 {
		t.Errorf("constraint: %d self steps left, %d right, %d delta plans, want 1, 0 and 2", n, m, len(c.lhsDeltaPlans))
	}
	// A wildcard key names no one value: two pair[_] stay two atoms.
	if r := w.rules[2]; count(r.steps, "pair") != 2 {
		t.Errorf("pair[_] written twice compiled to %d atoms, want 2", count(r.steps, "pair"))
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
// rule's static order leads with link, so an evaluator that kept that order
// for the reachable delta would scan every link per round — four times the
// work on the four times larger graph.
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
