package engine

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"secureblox/internal/datalog"
)

// naiveClosure computes the transitive closure of edges in plain Go, the
// oracle for property tests.
func naiveClosure(edges [][2]int64) map[[2]int64]bool {
	reach := map[[2]int64]bool{}
	for _, e := range edges {
		reach[e] = true
	}
	for changed := true; changed; {
		changed = false
		for a := range reach {
			for b := range reach {
				if a[1] == b[0] {
					k := [2]int64{a[0], b[1]}
					if !reach[k] {
						reach[k] = true
						changed = true
					}
				}
			}
		}
	}
	return reach
}

// TestClosureMatchesOracleQuick: for random edge sets and random insertion
// orders, the engine's incremental semi-naïve closure equals the oracle.
func TestClosureMatchesOracleQuick(t *testing.T) {
	f := func(seed int64, nEdges uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(nEdges%20) + 1
		edges := make([][2]int64, k)
		for i := range edges {
			edges[i] = [2]int64{int64(rng.Intn(8)), int64(rng.Intn(8))}
		}
		w := NewWorkspace(nil)
		prog, err := datalog.Parse(`
			reachable(X,Y) <- link(X,Y).
			reachable(X,Y) <- link(X,Z), reachable(Z,Y).
		`)
		if err != nil {
			return false
		}
		if err := w.Install(prog); err != nil {
			return false
		}
		// insert edges one transaction at a time in random order
		for _, i := range rng.Perm(k) {
			e := edges[i]
			if _, err := w.Assert([]Fact{{Pred: "link",
				Tuple: datalog.Tuple{datalog.Int64(e[0]), datalog.Int64(e[1])}}}); err != nil {
				return false
			}
		}
		want := naiveClosure(edges)
		if w.Count("reachable") != len(want) {
			return false
		}
		for e := range want {
			if !w.Contains("reachable", datalog.Tuple{datalog.Int64(e[0]), datalog.Int64(e[1])}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRetractMatchesRebuildQuick: retracting a random base fact — an edge,
// a home, or the node's own location — leaves the database identical to
// rebuilding from scratch without it. local reads the location through the
// lookups its delta plans resolve before their leading scan.
func TestRetractMatchesRebuildQuick(t *testing.T) {
	f := func(seed int64, nEdges uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(nEdges%12) + 2
		edge := func(a, b int64) Fact {
			return Fact{Pred: "link", Tuple: datalog.Tuple{datalog.Int64(a), datalog.Int64(b)}}
		}
		home := func(n string, x int64) Fact {
			return Fact{Pred: "home", Tuple: datalog.Tuple{datalog.NodeV(n), datalog.Int64(x)}}
		}
		facts := map[string]Fact{}
		for _, f := range []Fact{
			{Pred: "self", Tuple: datalog.Tuple{datalog.Prin("me")}},
			{Pred: "principal_node", Tuple: datalog.Tuple{datalog.Prin("me"), datalog.NodeV("a:1")}},
			home("a:1", rng.Int63n(6)), home("b:1", rng.Int63n(6)),
		} {
			facts[f.String()] = f
		}
		for i := 0; i < k; i++ {
			f := edge(rng.Int63n(6), rng.Int63n(6))
			facts[f.String()] = f
		}
		build := func(skip string) *Workspace {
			w := NewWorkspace(nil)
			prog, _ := datalog.Parse(`
				reachable(X,Y) <- link(X,Y).
				reachable(X,Y) <- link(X,Z), reachable(Z,Y).
				local(Y) <- reachable(X,Y), home(principal_node[self[]], X).
			`)
			if err := w.Install(prog); err != nil {
				t.Fatal(err)
			}
			var batch []Fact
			for key, f := range facts {
				if key != skip {
					batch = append(batch, f)
				}
			}
			if _, err := w.Assert(batch); err != nil {
				t.Fatal(err)
			}
			return w
		}
		keys := slices.Sorted(maps.Keys(facts))
		victim := keys[rng.Intn(len(keys))]
		full := build("")
		if err := full.Retract([]Fact{facts[victim]}); err != nil {
			return false
		}
		return sameExtents(t, full, build(victim))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAggIncrementalMatchesBatchQuick: asserting observations one at a time
// yields the same min aggregate as asserting them in one batch.
func TestAggIncrementalMatchesBatchQuick(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		prog, _ := datalog.Parse(`best[X]=C <- agg<< C=min(V) >> obs(X, V).`)
		one := NewWorkspace(nil)
		batch := NewWorkspace(nil)
		if one.Install(prog) != nil || batch.Install(prog) != nil {
			return false
		}
		var facts []Fact
		for _, v := range vals {
			f := Fact{Pred: "obs", Tuple: datalog.Tuple{datalog.Int64(1), datalog.Int64(int64(v))}}
			facts = append(facts, f)
			if _, err := one.Assert([]Fact{f}); err != nil {
				return false
			}
		}
		if _, err := batch.Assert(facts); err != nil {
			return false
		}
		a, okA := one.LookupFn("best", datalog.Int64(1))
		b, okB := batch.LookupFn("best", datalog.Int64(1))
		return okA && okB && a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// randomProgram emits a random stratified Datalog program over base
// predicates e/2, f/3, g/2 and derived predicates d0..d2/2: bodies mix base
// and derived atoms (recursion allowed), self-joins, constants and repeated
// variables in any atom — so in whichever atom leads a delta-first plan —
// ordered and inequality filters over variables of different atoms, and
// negation over base predicates with bound variables or wildcards. Filters
// and negations span atoms, so in most delta plans they only become ready
// some steps after the delta atom. Some bodies read the node's location the
// way the generated policy does — h(self[], V) over principals,
// m(principal_node[self[]], V) over nodes, or self[] bound on its own — so
// their delta plans resolve it before the leading scan.
func randomProgram(rng *rand.Rand) string { return randomRules(rng, true) }

// randomRules is randomProgram with negation optional: without it the
// program is monotone, so its incremental result has a from-scratch oracle.
func randomRules(rng *rand.Rand, negation bool) string {
	vars := []string{"A", "B", "C", "D"}
	bases := []struct {
		name  string
		arity int
	}{{"e", 2}, {"f", 3}, {"g", 2}}
	var sb strings.Builder
	nRules := 3 + rng.Intn(4)
	for ri := 0; ri < nRules; ri++ {
		var bodyParts []string
		bound := map[string]bool{}
		nAtoms := 2 + rng.Intn(2)
		name, arity := "", 0
		for ai := 0; ai < nAtoms; ai++ {
			switch {
			case ai > 0 && rng.Intn(4) == 0:
				// self-join: the same predicate at two delta positions
			case rng.Intn(3) == 0 && ri > 0:
				name, arity = fmt.Sprintf("d%d", rng.Intn(3)), 2
			default:
				b := bases[rng.Intn(len(bases))]
				name, arity = b.name, b.arity
			}
			args := make([]string, arity)
			for i := range args {
				switch {
				case rng.Intn(8) == 0:
					args[i] = fmt.Sprintf("%d", rng.Intn(4)) // constant
				case i > 0 && bound[args[i-1]] && rng.Intn(6) == 0:
					args[i] = args[i-1] // repeated variable
				default:
					args[i] = vars[rng.Intn(len(vars))]
					bound[args[i]] = true
				}
			}
			bodyParts = append(bodyParts, name+"("+strings.Join(args, ",")+")")
		}
		if rng.Intn(2) == 0 {
			v := vars[rng.Intn(len(vars))]
			bound[v] = true
			bodyParts = append(bodyParts, []string{
				"h(self[]," + v + ")",
				"m(principal_node[self[]]," + v + ")",
				"h(P," + v + "), self[]=P",
			}[rng.Intn(3)])
		}
		var boundVars []string
		for _, v := range vars {
			if bound[v] {
				boundVars = append(boundVars, v)
			}
		}
		if len(boundVars) == 0 {
			continue
		}
		if len(boundVars) >= 2 && rng.Intn(3) == 0 {
			i := rng.Intn(len(boundVars))
			j := (i + 1 + rng.Intn(len(boundVars)-1)) % len(boundVars)
			op := []string{"!=", "<", "<="}[rng.Intn(3)]
			bodyParts = append(bodyParts, boundVars[i]+" "+op+" "+boundVars[j])
		}
		if negation && rng.Intn(2) == 0 {
			b := bases[rng.Intn(len(bases))]
			args := make([]string, b.arity)
			for i := range args {
				if rng.Intn(3) == 0 {
					args[i] = "_"
				} else {
					args[i] = boundVars[rng.Intn(len(boundVars))]
				}
			}
			bodyParts = append(bodyParts, "!"+b.name+"("+strings.Join(args, ",")+")")
		}
		h1 := boundVars[rng.Intn(len(boundVars))]
		h2 := boundVars[rng.Intn(len(boundVars))]
		fmt.Fprintf(&sb, "d%d(%s,%s) <- %s.\n", rng.Intn(3), h1, h2, strings.Join(bodyParts, ", "))
	}
	// s0 and s1 are derived from base rows in the same round whenever one
	// transaction asserts both bases, and s2 joins them, so its delta plans
	// meet rows their own round stored; s3 joins s2 with itself.
	b0, b1 := []string{"e", "g"}[rng.Intn(2)], []string{"e", "g"}[rng.Intn(2)]
	j := [][2]string{{"A,B", "B,C"}, {"A,B", "C,B"}, {"B,A", "B,C"}}[rng.Intn(3)]
	fmt.Fprintf(&sb, "s0(A,B) <- %s(A,B).\ns1(B,A) <- %s(A,B).\n", b0, b1)
	fmt.Fprintf(&sb, "s2(A,C) <- s0(%s), s1(%s).\ns3(A,C) <- s2(A,B), s2(B,C).\n", j[0], j[1])
	return sb.String()
}

// randomConstraint emits an integrity constraint whose LHS joins two or
// three base atoms, so it is checked through more than one delta-first LHS
// plan. Base values range over 0..3, so only some joins violate it and most
// transactions commit.
func randomConstraint(rng *rand.Rand) string {
	lhs := [][]string{
		{"e(A,B)", "g(B,C)"},
		{"g(A,B)", "f(B,C,_)"},
		{"e(A,B)", "e(B,C)"},
		{"f(A,B,B)", "g(A,2)", "e(C,A)"},
		{"h(self[],A)", "e(A,C)"},
	}[rng.Intn(5)]
	rng.Shuffle(len(lhs), func(i, j int) { lhs[i], lhs[j] = lhs[j], lhs[i] })
	return strings.Join(lhs, ", ") + " -> A + C < " + fmt.Sprint(4+rng.Intn(3)) + ".\n"
}

// randomBaseFacts draws random ground facts for the base predicates; h's
// first column holds one of two principals, m's one of their nodes.
func randomBaseFacts(rng *rand.Rand, n int) []Fact {
	arities := map[string]int{"e": 2, "f": 3, "g": 2, "h": 2, "m": 2}
	names := []string{"e", "f", "g", "h", "m"}
	facts := make([]Fact, 0, n)
	for i := 0; i < n; i++ {
		name := names[rng.Intn(len(names))]
		tup := make(datalog.Tuple, arities[name])
		for j := range tup {
			tup[j] = datalog.Int64(int64(rng.Intn(4)))
		}
		switch name {
		case "h":
			tup[0] = randomPrincipal(rng)
		case "m":
			tup[0] = datalog.NodeV(fmt.Sprintf("n%d:1", rng.Intn(2)))
		}
		facts = append(facts, Fact{Pred: name, Tuple: tup})
	}
	return facts
}

func randomPrincipal(rng *rand.Rand) datalog.Value {
	return datalog.Prin(fmt.Sprintf("p%d", rng.Intn(2)))
}

// locationFacts are a node's self[] — now and then a second, conflicting one,
// whose transaction the functional dependency rolls back — and the nodes of
// both principals, each at a random position of facts, so they land in random
// transactions, before or after the facts that join them.
func locationFacts(rng *rand.Rand, facts []Fact) []Fact {
	loc := []Fact{
		{Pred: "self", Tuple: datalog.Tuple{randomPrincipal(rng)}},
		{Pred: "principal_node", Tuple: datalog.Tuple{datalog.Prin("p0"), datalog.NodeV("n0:1")}},
		{Pred: "principal_node", Tuple: datalog.Tuple{datalog.Prin("p1"), datalog.NodeV("n1:1")}},
	}
	if rng.Intn(4) == 0 {
		loc = append(loc, Fact{Pred: "self", Tuple: datalog.Tuple{randomPrincipal(rng)}})
	}
	for _, f := range loc {
		facts = slices.Insert(facts, rng.Intn(len(facts)+1), f)
	}
	return facts
}

// sameExtents reports whether two workspaces hold identical extents for
// every predicate (both directions, counts included).
func sameExtents(t *testing.T, a, b *Workspace) bool {
	t.Helper()
	preds := map[string]bool{}
	for _, p := range a.Predicates() {
		preds[p] = true
	}
	for _, p := range b.Predicates() {
		preds[p] = true
	}
	for p := range preds {
		if a.Count(p) != b.Count(p) {
			t.Logf("predicate %s: %d vs %d tuples", p, a.Count(p), b.Count(p))
			return false
		}
		for _, tp := range a.Tuples(p) {
			if !b.Contains(p, tp) {
				t.Logf("predicate %s: %s missing from the second workspace", p, tp)
				return false
			}
		}
	}
	return true
}

// diffRun drives one or more workspaces holding the same program through the
// same transactions: asserts in random batches, one retraction per base
// predicate, asserts again. A transaction must be accepted by all or rolled
// back by all; check runs after each of the three phases.
type diffRun struct {
	t  *testing.T
	ws []*Workspace
	// base tracks the base facts the committed transactions left behind.
	base map[string]Fact
}

func newDiffRun(t *testing.T, src string, ws ...*Workspace) *diffRun {
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatalf("generator produced unparsable program:\n%s\n%v", src, err)
	}
	for _, w := range ws {
		if err := w.Install(prog); err != nil {
			t.Fatalf("install:\n%s\n%v", src, err)
		}
	}
	return &diffRun{t: t, ws: ws, base: map[string]Fact{}}
}

func (d *diffRun) assert(batch []Fact) {
	alloc := snapshotAllocation(d.ws[0])
	res, err := d.ws[0].Assert(batch)
	if err == nil {
		if err := alloc.checkInserted(res); err != nil {
			d.t.Fatalf("assert %v: %v", batch, err)
		}
	}
	for _, w := range d.ws[1:] {
		if _, errW := w.Assert(batch); (err == nil) != (errW == nil) {
			d.t.Fatalf("assert %v: one workspace accepted, the other rolled back: %v / %v", batch, err, errW)
		}
	}
	if err != nil {
		return
	}
	for _, f := range batch {
		d.base[f.String()] = f
	}
	// Accepted through the delta-first LHS plans: the full verification, the
	// first plan over the whole database, must agree that nothing is violated.
	if err := d.ws[0].checkAllConstraints(); err != nil {
		d.t.Fatalf("assert %v committed a violation the delta check missed: %v", batch, err)
	}
}

// allocation is the oracle for TxnResult.Inserted over transactions that only
// insert: where each relation's row store stood before one — the ids it will
// hand out next, in order. A tuple's row is allocated at the moment it is
// inserted, so the rows a transaction took, in allocation order, are the
// per-predicate lists the evaluator used to keep as a map of tuple slices.
type allocation struct {
	w    *Workspace
	free map[string][]uint32
	rows map[string]int
}

func snapshotAllocation(w *Workspace) allocation {
	a := allocation{w: w, free: map[string][]uint32{}, rows: map[string]int{}}
	for _, rel := range w.rels {
		name := rel.schema.Name
		a.free[name], a.rows[name] = slices.Clone(rel.free), len(rel.flags)
	}
	return a
}

// checkInserted verifies res, the result of the one insert-only transaction
// committed since the snapshot, predicate by predicate, order included.
func (a allocation) checkInserted(res *TxnResult) error {
	for _, name := range a.w.Predicates() {
		rel, free, next := a.w.relation(name), a.free[name], a.rows[name]
		var want []datalog.Tuple
		for taken := len(free) - len(rel.free) + len(rel.flags) - next; taken > 0; taken-- {
			id := uint32(next)
			if k := len(free); k > 0 {
				id, free = free[k-1], free[:k-1]
			} else {
				next++
			}
			want = append(want, rel.syms.tuple(rel.row(id)))
		}
		if got := res.Inserted(name); !slices.EqualFunc(got, want, datalog.Tuple.Equal) {
			return fmt.Errorf("Inserted(%s) = %v, the rows the transaction took hold %v", name, got, want)
		}
	}
	return nil
}

func (d *diffRun) run(rng *rand.Rand, nFacts int, check func(phase string) bool) bool {
	facts := locationFacts(rng, randomBaseFacts(rng, nFacts))
	for len(facts) > 0 {
		n := 1 + rng.Intn(len(facts))
		d.assert(facts[:n])
		facts = facts[n:]
	}
	if !check("asserts") {
		return false
	}
	for _, name := range []string{"e", "f", "g", "h", "m", "principal_node", "self"} {
		tuples := d.ws[0].Tuples(name)
		if len(tuples) == 0 {
			continue
		}
		victim := Fact{Pred: name, Tuple: tuples[rng.Intn(len(tuples))]}
		for _, w := range d.ws {
			if err := w.Retract([]Fact{victim}); err != nil {
				d.t.Fatalf("retract: %v", err)
			}
		}
		delete(d.base, victim.String())
	}
	if !check("retraction") {
		return false
	}
	for _, f := range randomBaseFacts(rng, 6) {
		d.assert([]Fact{f})
	}
	return check("post-retraction asserts")
}

// stripIndexes removes the access path of every installed join step, so each
// one takes the evaluator's no-usable-index path: scan the relation and
// unify. What is left is the scan-and-unify reference evaluation.
func stripIndexes(w *Workspace) {
	strip := func(plans ...[]step) {
		for _, steps := range plans {
			for i := range steps {
				steps[i].probe = noProbe
			}
		}
	}
	stripDelta := func(plans []deltaPlan) {
		for _, plan := range plans {
			strip(plan.pre, plan.steps)
		}
	}
	for _, r := range w.prog.rules {
		stripDelta(r.deltaPlans)
	}
	for _, c := range w.prog.constraints {
		strip(c.rhsSteps)
		stripDelta(c.lhsDeltaPlans)
	}
}

// underivedHead returns a head that a body binding over w's database supports
// and w does not hold, or "" when w is closed under its rules: a full
// evaluation of each rule, by its first plan, that derives nothing.
func underivedHead(t *testing.T, w *Workspace) string {
	t.Helper()
	missing := ""
	errMissing := fmt.Errorf("missing head")
	for _, r := range w.prog.rules {
		err := w.runDelta(&r.deltaPlans[0], nil, &w.frame, func(f *frame) error {
			for hi := range r.heads {
				var buf [8]cell
				vals := buf[:0]
				for i := range r.cheads[hi] {
					v, err := w.eval(&r.cheads[hi][i], f)
					if err != nil {
						return err
					}
					vals = append(vals, v)
				}
				if w.rels[r.headRels[hi]].rowOf(vals) < 0 {
					missing = r.heads[hi].Pred + w.syms.tuple(vals).String()
					return errMissing
				}
			}
			return nil
		})
		if err != nil && err != errMissing {
			t.Fatal(err)
		}
		if missing != "" {
			return missing
		}
	}
	return ""
}

// TestIndexedMatchesForcedScanQuick: on randomized programs, indexed
// evaluation (functional + secondary indexes under delta-first plans) must
// produce exactly the same fixpoint and the same constraint verdicts as
// forced full-scan evaluation — through asserts, retractions (which rebuild
// secondary indexes), and asserts after that. Both run the same delta plans,
// so after the asserts, which only add base facts and so leave every
// negation's answer as it was when the rows it filters arrived, each must
// also be closed under its rules: no binding the plans missed.
func TestIndexedMatchesForcedScanQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomProgram(rng) + randomConstraint(rng)
		indexed := NewWorkspace(nil)
		scans := NewWorkspace(nil)
		d := newDiffRun(t, src, indexed, scans)
		stripIndexes(scans)
		stripped := scans.Stats()
		if err := checkInstalledDeltaPlans(indexed.prog); err != nil {
			t.Fatalf("program:\n%s\n%v", src, err)
		}
		ok := d.run(rng, 12+rng.Intn(15), func(phase string) bool {
			if !sameExtents(t, indexed, scans) {
				t.Logf("divergence after %s, program:\n%s", phase, src)
				return false
			}
			if phase == "asserts" {
				if h := underivedHead(t, indexed); h != "" {
					t.Logf("the database supports %s, which the delta plans never derived, program:\n%s", h, src)
					return false
				}
			}
			return true
		})
		if s := indexed.Stats(); s.FullScanFallbacks != 0 {
			t.Logf("indexed workspace fell back to %d full scans, program:\n%s",
				s.FullScanFallbacks, src)
			return false
		}
		// The reference must stay a scan evaluation: not one probe, and
		// relation scans in their place.
		if ref := scans.Stats().Sub(stripped); ref.IndexProbes != 0 || ref.LeadingScans+ref.FullScanFallbacks == 0 {
			t.Logf("reference workspace is not a forced-scan run (%s), program:\n%s", ref, src)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// naiveSaturate is the from-scratch oracle: the program installed on an
// empty workspace, the base facts inserted, and every rule fully evaluated by
// its plan k (its last, if it has fewer) over the whole database until nothing
// new appears. It never ranges a plan over a delta.
func naiveSaturate(t *testing.T, src string, base map[string]Fact, k int) *Workspace {
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkspace(nil)
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	tx := w.begin()
	for _, f := range base {
		if err := w.insertBase(tx, w.relationFor(f), f.Tuple, false); err != nil {
			t.Fatal(err)
		}
	}
	for grew := true; grew; {
		for _, r := range w.prog.rules {
			plan := &r.deltaPlans[min(k, len(r.deltaPlans)-1)]
			if err := w.runDelta(plan, nil, &w.frame, func(f *frame) error { return w.derive(r, f) }); err != nil {
				t.Fatal(err)
			}
		}
		grew = w.nextRound() // did the pass insert anything
	}
	return w
}

// TestDeltaPlansMatchNaiveSaturationQuick: on randomized monotone programs
// (no negation, so the result depends only on the surviving base facts),
// the database maintained incrementally through delta-first plans — through
// asserts, constraint rollbacks and retractions — equals a from-scratch
// saturation by every plan position: plan k of each rule over the whole
// database, for every k. So the result does not hang on the plan a full
// evaluation picks, and losing any one delta position's plan loses the
// derivations only that position finds, and this test with them.
func TestDeltaPlansMatchNaiveSaturationQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomRules(rng, false) + randomConstraint(rng)
		w := NewWorkspace(nil)
		d := newDiffRun(t, src, w)
		positions := 0
		for _, r := range w.prog.rules {
			positions = max(positions, len(r.deltaPlans))
		}
		return d.run(rng, 12+rng.Intn(15), func(phase string) bool {
			for k := range positions {
				if !sameExtents(t, naiveSaturate(t, src, d.base, k), w) {
					t.Logf("incremental state differs from saturation by plan %d after %s, program:\n%s", k, phase, src)
					return false
				}
			}
			return true
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEachBindingDerivedOnce: on monotone programs — no negation, no
// aggregate — the derivations of a run of committed transactions number
// exactly the rule bodies' bindings over the final database, each counted by
// a full evaluation: the delta plans find every binding once, in the round
// its last row arrives, however the rows are split into transactions and
// rounds. The random programs are the saturation oracle's; three fixed shapes
// follow — a rule joining a relation with what another rule derives from it
// in the same round (the export rules' says and sig), two bases asserted in
// one transaction, and a recursive self-join. The location facts go first, in
// a transaction of their own, as a node asserts them at set-up: a plan's
// location lookups read the whole relation, so a binding whose location row
// arrives in the same round as its other rows may be found twice.
func TestEachBindingDerivedOnce(t *testing.T) {
	check := func(t *testing.T, src string, batches [][]Fact) {
		t.Helper()
		prog, err := datalog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorkspace(nil)
		if err := w.Install(prog); err != nil {
			t.Fatal(err)
		}
		var derived int64
		for _, batch := range batches {
			before := w.Stats().Derivations
			if _, err := w.Assert(batch); err == nil {
				derived += w.Stats().Derivations - before
			}
		}
		var bindings int64
		for _, r := range w.prog.rules {
			if err := w.runDelta(&r.deltaPlans[0], nil, &w.frame, func(*frame) error { bindings++; return nil }); err != nil {
				t.Fatal(err)
			}
		}
		if derived != bindings {
			t.Errorf("%d derivations for %d body bindings, program:\n%s", derived, bindings, src)
		}
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randomRules(rng, false)
		loc := locationFacts(rng, nil)
		facts := randomBaseFacts(rng, 12+rng.Intn(15))
		batches := [][]Fact{loc}
		for len(facts) > 0 {
			n := 1 + rng.Intn(len(facts))
			batches, facts = append(batches, facts[:n]), facts[n:]
		}
		check(t, src, batches)
	}
	fact := func(pred string, vals ...int64) Fact { return Fact{Pred: pred, Tuple: tup(vals...)} }
	check(t, "t(X) <- s(X).\ne(X) <- s(X), t(X).\n",
		[][]Fact{{fact("s", 1), fact("s", 2)}, {fact("s", 3)}})
	check(t, "j(X,Y,Z) <- a(X,Y), b(Z,Y).\n",
		[][]Fact{{fact("a", 1, 2), fact("a", 3, 2), fact("b", 4, 2), fact("b", 5, 2)}})
	check(t, "tc(X,Y) <- q(X,Y).\ntc(X,Z) <- tc(X,Y), tc(Y,Z).\n",
		[][]Fact{{fact("q", 1, 2), fact("q", 2, 3), fact("q", 3, 1)}, {fact("q", 3, 4)}})
}

// TestGroundNegationIsConstantTime: a fully bound negated atom must be
// answered by one hash probe, not a relation scan — the probe count must not
// depend on the negated relation's size, and results must stay correct.
func TestGroundNegationIsConstantTime(t *testing.T) {
	build := func(nBig int) (*Workspace, int64) {
		w := NewWorkspace(nil)
		prog, err := datalog.Parse(`ok(X,Y) <- q(X,Y), !big(X,Y).`)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Install(prog); err != nil {
			t.Fatal(err)
		}
		var facts []Fact
		for i := 0; i < nBig; i++ {
			facts = append(facts, Fact{Pred: "big",
				Tuple: datalog.Tuple{datalog.Int64(int64(i)), datalog.Int64(int64(i))}})
		}
		if _, err := w.Assert(facts); err != nil {
			t.Fatal(err)
		}
		before := w.Stats()
		if _, err := w.AssertProgramFacts(`q(1,1). q(1,2).`); err != nil {
			t.Fatal(err)
		}
		d := w.Stats().Sub(before)
		if d.FullScanFallbacks != 0 {
			t.Fatalf("nBig=%d: ground negation fell back to %d full scans", nBig, d.FullScanFallbacks)
		}
		if !w.Contains("ok", datalog.Tuple{datalog.Int64(1), datalog.Int64(2)}) {
			t.Fatalf("nBig=%d: ok(1,2) not derived", nBig)
		}
		if w.Contains("ok", datalog.Tuple{datalog.Int64(1), datalog.Int64(1)}) {
			t.Fatalf("nBig=%d: ok(1,1) derived despite big(1,1)", nBig)
		}
		return w, d.IndexProbes
	}
	_, probesSmall := build(4)
	_, probesLarge := build(4096)
	if probesLarge != probesSmall {
		t.Errorf("negation work scaled with relation size: %d probes at n=4, %d at n=4096",
			probesSmall, probesLarge)
	}
}

// TestPartiallyGroundNegationUsesIndex: negation with wildcards (the
// path-vector pattern !pathlink(P, N, _)) must probe a secondary index on
// its bound columns rather than scanning.
func TestPartiallyGroundNegationUsesIndex(t *testing.T) {
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(`fresh(X) <- cand(X), !seen(X,_).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AssertProgramFacts(`seen(1, 10). seen(1, 11). seen(3, 12).`); err != nil {
		t.Fatal(err)
	}
	before := w.Stats()
	if _, err := w.AssertProgramFacts(`cand(1). cand(2).`); err != nil {
		t.Fatal(err)
	}
	d := w.Stats().Sub(before)
	if d.FullScanFallbacks != 0 {
		t.Fatalf("wildcard negation fell back to %d full scans", d.FullScanFallbacks)
	}
	if d.IndexProbes == 0 {
		t.Fatal("wildcard negation did not probe an index")
	}
	if w.Contains("fresh", datalog.Tuple{datalog.Int64(1)}) {
		t.Error("fresh(1) derived despite seen(1,_)")
	}
	if !w.Contains("fresh", datalog.Tuple{datalog.Int64(2)}) {
		t.Error("fresh(2) not derived")
	}
}

// TestTxnRollbackLeavesNoTrace: a failing transaction must leave relation
// contents and entity counters bit-identical.
func TestTxnRollbackLeavesNoTrace(t *testing.T) {
	w := NewWorkspace(nil)
	prog, _ := datalog.Parse(`
		pathvar(P) -> .
		pathvar(P), marked(P, X) <- seed(X).
		seed(X) -> allowed(X).
	`)
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AssertProgramFacts(`allowed(1).`); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AssertProgramFacts(`seed(1).`); err != nil {
		t.Fatal(err)
	}
	entities := w.Count("pathvar")
	snapshot := map[string]int{}
	for _, p := range w.Predicates() {
		snapshot[p] = w.Count(p)
	}
	// failing txn creates an entity then rolls back
	if _, err := w.AssertProgramFacts(`seed(99).`); err == nil {
		t.Fatal("expected violation")
	}
	for _, p := range w.Predicates() {
		if w.Count(p) != snapshot[p] {
			t.Errorf("predicate %s changed: %d -> %d", p, snapshot[p], w.Count(p))
		}
	}
	if w.Count("pathvar") != entities {
		t.Error("rolled-back entity survived")
	}
	// a successful txn afterwards reuses a clean counter (no gaps needed,
	// just no corruption)
	if _, err := w.AssertProgramFacts(`allowed(2). seed(2).`); err != nil {
		t.Fatal(err)
	}
	if w.Count("pathvar") != entities+1 {
		t.Errorf("want %d entities, got %d", entities+1, w.Count("pathvar"))
	}
}

// TestManySmallTransactions stresses the undo machinery.
func TestManySmallTransactions(t *testing.T) {
	w := NewWorkspace(nil)
	prog, _ := datalog.Parse(`
		total[X]=C <- agg<< C=count(Y) >> ev(X, Y).
		ev(X, Y) -> even(Y).
	`)
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := w.AssertProgramFacts(fmt.Sprintf("even(%d).", i*2)); err != nil {
			t.Fatal(err)
		}
	}
	accepted := 0
	for i := 0; i < 100; i++ {
		_, err := w.Assert([]Fact{{Pred: "ev",
			Tuple: datalog.Tuple{datalog.Int64(1), datalog.Int64(int64(i))}}})
		if err == nil {
			accepted++
		}
	}
	if accepted != 50 {
		t.Fatalf("want 50 accepted, got %d", accepted)
	}
	if v, ok := w.LookupFn("total", datalog.Int64(1)); !ok || v.Int != 50 {
		t.Errorf("count aggregate after mixed txns: %v", v)
	}
}
