package engine

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"secureblox/internal/datalog"
)

// checkInstalledDeltaPlans checks the invariants every planned rule and
// constraint of p keeps, whatever order the planner picks: one delta plan per
// positive atom (one plan if there is none), each running the literals of the
// first plan — what a full evaluation runs — against the same slot numbering;
// its location lookups each one functional probe of self or principal_node;
// the delta atom leading with no access path of its own; every later step
// that needs an access path has one, and no later match probes nothing while
// it shares a variable with what ran before it; and however often the source
// writes self[], a plan reads it at most once.
func checkInstalledDeltaPlans(p *Program) error {
	check := func(plans []deltaPlan, slotNames []string) error {
		first, want, matches := slices.Concat(plans[0].pre, plans[0].steps), map[string]int{}, 0
		for i := range first {
			want[describeStep(first[i])]++
			if first[i].kind == stepMatch {
				matches++
			}
		}
		if len(plans) != max(matches, 1) {
			return fmt.Errorf("%d delta plans for %d positive atoms", len(plans), matches)
		}
		for k, plan := range plans {
			left, seen, self := maps.Clone(want), map[string]bool{}, 0
			for i, s := range slices.Concat(plan.pre, plan.steps) {
				left[describeStep(s)]--
				if s.kind == stepMatch && s.pred == "self" {
					self++
				}
				for j := range s.args {
					if a := &s.args[j]; a.kind == ctVar && slotNames[a.slot] != a.name {
						return fmt.Errorf("delta plan %d: variable %s compiled to slot %d (%s)", k, a.name, a.slot, slotNames[a.slot])
					}
				}
				switch lead := i - len(plan.pre); {
				case lead < 0:
					if s.kind != stepMatch || !isLocation(s.pred) || s.probe != 1 {
						return fmt.Errorf("delta plan %d: lookup %s is not a functional probe of a location relation", k, describeStep(s))
					}
				case lead == 0 && matches > 0:
					if s.kind != stepMatch || s.probe != noProbe || len(s.boundCols) != 0 {
						return fmt.Errorf("delta plan %d: %s leads it with an access path, or is no atom", k, describeStep(s))
					}
				case s.kind == stepMatch || s.kind == stepNeg:
					shares := slices.ContainsFunc(s.atom.Args, func(t datalog.Term) bool {
						v, ok := t.(datalog.Var)
						return ok && seen[v.Name]
					})
					if s.kind == stepMatch && len(s.boundCols) == 0 && shares {
						return fmt.Errorf("delta plan %d: %s shares variables with earlier steps but probes nothing", k, s.atom)
					}
					if len(s.boundCols) > 0 && len(s.boundCols) < len(s.args) && s.probe == noProbe {
						return fmt.Errorf("delta plan %d: %s has bound columns %v and no index", k, s.atom, s.boundCols)
					}
				}
				if s.kind == stepMatch || s.kind == stepUDF {
					datalog.AtomVars(s.atom, seen)
				}
				if s.kind == stepCmp && s.op == "=" {
					datalog.VarsOf(s.l, seen)
					datalog.VarsOf(s.r, seen)
				}
			}
			if self > 1 {
				return fmt.Errorf("delta plan %d: %d self steps, want at most 1", k, self)
			}
			for lit, n := range left {
				if n != 0 {
					return fmt.Errorf("delta plan %d: literal %s: the first plan and this one disagree by %d", k, lit, n)
				}
			}
		}
		return nil
	}
	for _, r := range p.rules {
		if err := check(r.deltaPlans, r.slotNames); err != nil {
			return fmt.Errorf("rule %s: %w", r, err)
		}
	}
	for _, c := range p.constraints {
		if err := check(c.lhsDeltaPlans, c.slotNames); err != nil {
			return fmt.Errorf("constraint %s: %w", c, err)
		}
	}
	return nil
}

// planBlocks prints each rule and constraint of p as one block: a header with
// its source — a constraint's also says whether it is store-checked — then one
// line per delta plan, its steps in the order they run. A constraint's block
// ends with its right-hand side. Each step is its source literal, then in
// parentheses its marks — pre for a location lookup, delta for the atom the
// plan ranges over, earlier for a match that does not see the round's delta —
// and its access path: scan, row (the whole row), key[cols] (the functional
// key) or index[cols] (a secondary index); udf and kind name the steps that
// probe nothing, and a comparison has no parentheses. Relations and indexes
// are named, never numbered, so a block reads the same in every program.
func planBlocks(p *Program) []string {
	access := func(s *step) string {
		switch s.kind {
		case stepCmp:
			return ""
		case stepUDF:
			return "udf"
		case stepKindCheck:
			return "kind"
		}
		spec := &p.rels[s.rel]
		first := 1
		if spec.schema.Functional() {
			first = 2
		}
		switch {
		case s.probe == noProbe:
			return "scan"
		case s.probe == 0:
			return "row"
		case s.probe < first:
			return fmt.Sprint("key", s.probeCols)
		}
		return fmt.Sprint("index", spec.indexes[s.probe-first])
	}
	var b strings.Builder
	// line prints one step list; steps[0] is its delta atom if led.
	line := func(prefix string, pre, steps []step, led bool) {
		b.WriteString(prefix)
		for i, s := range slices.Concat(pre, steps) {
			if i > 0 {
				b.WriteString(" ; ")
			}
			b.WriteString(describeStep(s))
			var notes []string
			if i < len(pre) {
				notes = append(notes, "pre")
			}
			if led && i == len(pre) {
				notes = append(notes, "delta")
			}
			if s.earlier {
				notes = append(notes, "earlier")
			}
			if a := access(&s); a != "" {
				notes = append(notes, a)
			}
			if len(notes) > 0 {
				fmt.Fprintf(&b, " (%s)", strings.Join(notes, " "))
			}
		}
		b.WriteString("\n")
	}
	var blocks []string
	block := func(header string, plans []deltaPlan, rhs []step) {
		b.Reset()
		b.WriteString(strings.ReplaceAll(header, "\n  ", " ") + "\n") // a rule's heads, one per line
		for _, plan := range plans {
			line("  ", plan.pre, plan.steps, plan.led())
		}
		if rhs != nil {
			line("  -> ", nil, rhs, false)
		}
		blocks = append(blocks, b.String())
	}
	for _, r := range p.rules {
		block("rule: "+r.String(), r.deltaPlans, nil)
	}
	for _, c := range p.constraints {
		header := "constraint: "
		if c.storeChecked {
			header = "constraint, store-checked: "
		}
		block(header+c.String(), c.lhsDeltaPlans, c.rhsSteps)
	}
	return blocks
}

// checkGolden compares got with the golden file testdata/name. When they
// differ it names the first line that does and writes got to a file under
// os.TempDir(), whose path it prints: copying that file over the golden
// accepts the printout.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err == nil && string(want) == got {
		return
	}
	if err != nil {
		t.Error(err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	n := 0
	for n < len(wl) && n < len(gl) && wl[n] == gl[n] {
		n++
	}
	at := func(lines []string) string {
		if n < len(lines) {
			return lines[n]
		}
		return "(end of file)"
	}
	f, err := os.CreateTemp("", strings.TrimSuffix(name, ".golden")+"-*.golden")
	if err == nil {
		_, err = f.WriteString(got)
		f.Close()
	}
	if err != nil {
		t.Fatalf("%s differs from the printout at line %d; writing the printout: %v", path, n+1, err)
	}
	abs, _ := filepath.Abs(path)
	t.Errorf("%s differs from the printout at line %d:\n  golden:   %s\n  printout: %s\nto accept the printout: cp %s %s",
		path, n+1, at(wl), at(gl), f.Name(), abs)
}

// enginePlanPrograms are the fixed programs whose plans
// testdata/engine_plans.golden pins.
var enginePlanPrograms = []struct{ name, src string }{
	{"closure, multijoin, filters, negation, an aggregate, a constraint", BenchClosureSrc + BenchMultijoinSrc + `
		two(X,Y) <- link(X,Z), link(Z,Y), X != Y, !blocked(X,_).
		same(X) <- link(X,X), tag(X, 3).
		lonely(X,Y) <- tag(X,_), blocked(Y,_).
		best[X]=C <- agg<< C=min(V) >> tag(X,V), link(X,_).
		link(X,Y), tag(Y,V) -> V >= 0, tag(X,_).
	`},
	{"location lookups", `
		reach(X, Y) <- link(X, Z), reach(Z, Y), X != Y.
		out(Y) <- reach(X, Y), at(principal_node[self[]], X).
	`},
	{"shared functional applications", sharedAppsSrc},
	// Not store-checked: a right-hand side that checks membership (principal
	// is a relation as well as a kind), a left-hand side that joins two atoms
	// or repeats a variable, a kind check of another type than the schema's.
	{"store-checked marks", hashJoinDecls + `
		pair(X, Y), pair(Y, X) -> int(X).
		twin(X, X) -> int(X).
		e(X, Y) -> int(X), int(Y).
		e(X, Y) -> string(X).
		q(X) -> int(X), X > 0.
	`},
	{"a setup-led index", `hop(X, Y) <- gate(X), edge(X, Y).`},
	{"no positive atom", `q(1) <- 1 < 2. 1 < 2 -> !bad(1).`},
}

// TestEnginePlansGolden: the plans of the fixed programs, printed by
// planBlocks, match testdata/engine_plans.golden, and keep the planner's
// invariants.
func TestEnginePlansGolden(t *testing.T) {
	var b strings.Builder
	for _, prog := range enginePlanPrograms {
		parsed, err := datalog.Parse(prog.src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(parsed, NewUDFRegistry())
		if err != nil {
			t.Fatalf("%s: %v", prog.name, err)
		}
		if err := checkInstalledDeltaPlans(p); err != nil {
			t.Errorf("%s: %v", prog.name, err)
		}
		fmt.Fprintf(&b, "== %s ==\n", prog.name)
		for _, block := range planBlocks(p) {
			b.WriteString(block)
		}
	}
	checkGolden(t, "engine_plans.golden", b.String())
}

// sharedAppsSrc writes self[] three times in a rule, the way the generated
// export policy does; its rules are that policy's export, import and
// authentication shapes. A functional application written twice is one atom
// (compiler.apps) unless its key is a wildcard.
const sharedAppsSrc = `
	export(N, L, P) <- says(self[], U, P), sig(self[], U, P, S),
		principal_node[U]=N, principal_node[self[]]=L.
	says(U, self[], P), sig(U, self[], P, S) <- export(N, L, P), inbox(P, S),
		principal_node[self[]]=N, principal_node[U]=L.
	says(U, self[], P) -> trusted(self[], U), principal_node[self[]]=N, !banned(self[], N).
	other(X, Y) <- pair[_]=X, pair[_]=Y.
`

// TestDeltaPlanShapeSharesFunctionalApplications: sharing a functional
// application written several times leaves the answers as they were; the
// sharing itself is in the engine golden's "shared functional applications".
func TestDeltaPlanShapeSharesFunctionalApplications(t *testing.T) {
	w := installed(t, nil, sharedAppsSrc)
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
