package analysis

import (
	"fmt"
	"sort"
	"strings"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
)

// DepEdge is one predicate dependency: From (a rule head) depends on To (a
// body predicate). Negated marks negation edges; Agg marks positive edges
// into an aggregation rule (non-monotonic like negation).
type DepEdge struct {
	From, To string
	Negated  bool
	Agg      bool
	Rule     *datalog.Rule
	Pos      datalog.Pos
}

// DepGraph is the program's predicate dependency graph.
type DepGraph struct {
	Edges []DepEdge
	adj   map[string][]string
}

// buildDepGraph derives the dependency graph from rule plans, falling back
// to the AST for rules whose body could not be ordered (their dependencies
// still matter for stratification).
func buildDepGraph(plans []engine.RulePlan, isUDF func(string) bool) *DepGraph {
	g := &DepGraph{adj: map[string][]string{}}
	add := func(e DepEdge) {
		g.Edges = append(g.Edges, e)
		g.adj[e.From] = append(g.adj[e.From], e.To)
	}
	for _, p := range plans {
		agg := p.Src.Agg != nil
		if p.Err != nil {
			for _, h := range p.Src.Heads {
				hn := h.ConcreteName()
				for _, l := range p.Src.Body {
					if l.Kind != datalog.LitAtom && l.Kind != datalog.LitNeg {
						continue
					}
					if isUDF(l.Atom.Pred) {
						continue
					}
					add(DepEdge{From: hn, To: l.Atom.ConcreteName(),
						Negated: l.Kind == datalog.LitNeg, Agg: agg && l.Kind == datalog.LitAtom,
						Rule: p.Src, Pos: l.Atom.Pos})
				}
			}
			continue
		}
		for _, h := range p.Heads {
			hn := h.ConcreteName()
			for _, s := range p.Steps {
				if s.Kind != engine.StepMatch && s.Kind != engine.StepNeg {
					continue
				}
				add(DepEdge{From: hn, To: s.Pred,
					Negated: s.Kind == engine.StepNeg, Agg: agg && s.Kind == engine.StepMatch,
					Rule: p.Src, Pos: s.Atom.Pos})
			}
		}
	}
	return g
}

// before reports whether source position a comes before b; an unknown
// position comes after every known one.
func before(a, b datalog.Pos) bool {
	if a.Known() != b.Known() {
		return a.Known()
	}
	return a.Line < b.Line || a.Line == b.Line && a.Col < b.Col
}

// sccIDs assigns each predicate its strongly-connected-component id via an
// iterative Tarjan over the dependency adjacency.
func (g *DepGraph) sccIDs() map[string]int {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	next, nComp := 0, 0

	var nodes []string
	seen := map[string]bool{}
	for _, e := range g.Edges {
		for _, p := range []string{e.From, e.To} {
			if !seen[p] {
				seen[p] = true
				nodes = append(nodes, p)
			}
		}
	}
	sort.Strings(nodes)

	type frame struct {
		node string
		ei   int
	}
	for _, start := range nodes {
		if _, ok := index[start]; ok {
			continue
		}
		work := []frame{{node: start}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.node
			if f.ei == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(g.adj[v]) {
				w := g.adj[v][f.ei]
				f.ei++
				if _, ok := index[w]; !ok {
					work = append(work, frame{node: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].node
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return comp
}

// cyclePath returns a dependency path from -> ... -> to restricted to one
// SCC, used to print the offending cycle.
func (g *DepGraph) cyclePath(from, to string, comp map[string]int) []string {
	if from == to {
		return []string{from}
	}
	scc := comp[from]
	prev := map[string]string{from: from}
	queue := []string{from}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		succs := append([]string(nil), g.adj[v]...)
		sort.Strings(succs)
		for _, w := range succs {
			if comp[w] != scc {
				continue
			}
			if _, ok := prev[w]; ok {
				continue
			}
			prev[w] = v
			if w == to {
				var path []string
				for x := to; x != from; x = prev[x] {
					path = append(path, x)
				}
				path = append(path, from)
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, w)
		}
	}
	return nil
}

// networkPred reports whether a predicate represents a network hop: the
// generics compiler mints parameterized predicates with "$" (says$path,
// export$...), and the dist layer's export relations cross node boundaries.
// A cycle through one of these is broken by the network at runtime — the
// paper's programs are semantically stratified this way.
func networkPred(p string) bool {
	return strings.Contains(p, "$") || p == "export" || strings.HasPrefix(p, "export_")
}

// checkStratification reports negation and aggregation edges that close a
// dependency cycle, printing the offending cycle. Severity policy: a
// negation guarding the rule's own head (first-writer-wins import guard) or
// a cycle crossing a network predicate is a Warning — the program is
// semantically stratified, the cycle is broken by the network or by
// evaluation order; a purely local cycle is an Error.
func checkStratification(r *Report, plans []engine.RulePlan) {
	comp := r.Deps.sccIDs()
	type key struct {
		rule string
		pred string
		agg  bool
	}
	seen := map[key]bool{}
	for _, e := range r.Deps.Edges {
		if !e.Negated && !e.Agg {
			continue
		}
		cf, okF := comp[e.From]
		ct, okT := comp[e.To]
		if !okF || !okT || cf != ct {
			continue
		}
		k := key{rule: e.Rule.String(), pred: e.To, agg: e.Agg}
		if seen[k] {
			continue
		}
		seen[k] = true

		path := r.Deps.cyclePath(e.To, e.From, comp)
		cycle := append([]string{e.From}, path...)
		sev := Error
		selfGuard := false
		if e.Negated {
			for _, h := range e.Rule.Heads {
				if h.ConcreteName() == e.To {
					selfGuard = true
				}
			}
		}
		crossesNet := false
		for _, p := range cycle {
			if networkPred(p) {
				crossesNet = true
			}
		}
		if selfGuard || crossesNet {
			sev = Warning
		}
		code := CodeUnstratifiedNeg
		kind := "negation"
		if e.Agg {
			code = CodeAggregateCycle
			kind = "aggregation"
		}
		note := ""
		if selfGuard {
			note = " (first-writer-wins guard on the rule's own head)"
		} else if crossesNet {
			note = " (cycle crosses the network; semantically stratified)"
		}
		r.Findings = append(r.Findings, Finding{
			Severity: sev, Code: code, Pos: e.Pos, Rule: e.Rule.String(),
			Msg: fmt.Sprintf("%s over %s closes a dependency cycle: %s%s",
				kind, e.To, strings.Join(cycle, " -> "), note),
		})
	}
}

// checkDeadRules finds rules that can never fire: starting from the EDB
// (predicates that are never a rule head, assumed assertable, plus source
// facts), propagate non-emptiness through rule bodies; a rule whose
// positive body mentions a provably-empty predicate is dead — typically a
// recursive definition with no base case.
func checkDeadRules(r *Report, plans []engine.RulePlan, prog *datalog.Program, isUDF func(string) bool) {
	heads := map[string]bool{}
	for _, p := range plans {
		for _, h := range p.Src.Heads {
			heads[h.ConcreteName()] = true
		}
	}
	nonempty := map[string]bool{}
	mark := func(pred string) {
		if !heads[pred] {
			nonempty[pred] = true // EDB: never derived, assumed assertable
		}
	}
	positiveBody := func(p engine.RulePlan) []string {
		var preds []string
		if p.Err != nil {
			for _, l := range p.Src.Body {
				if l.Kind == datalog.LitAtom && !isUDF(l.Atom.Pred) {
					preds = append(preds, l.Atom.ConcreteName())
				}
			}
			return preds
		}
		for _, s := range p.Steps {
			if s.Kind == engine.StepMatch {
				preds = append(preds, s.Pred)
			}
		}
		return preds
	}
	for _, p := range plans {
		for _, pred := range positiveBody(p) {
			mark(pred)
		}
		for _, l := range p.Src.Body {
			if l.Kind == datalog.LitNeg {
				mark(l.Atom.ConcreteName())
			}
		}
	}
	for _, f := range prog.Facts {
		nonempty[f.ConcreteName()] = true
	}

	fires := make([]bool, len(plans))
	changed := true
	for changed {
		changed = false
		for i, p := range plans {
			if fires[i] {
				continue
			}
			ok := true
			for _, pred := range positiveBody(p) {
				if !nonempty[pred] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			fires[i] = true
			changed = true
			for _, h := range p.Src.Heads {
				if !nonempty[h.ConcreteName()] {
					nonempty[h.ConcreteName()] = true
				}
			}
		}
	}
	for i, p := range plans {
		if fires[i] {
			continue
		}
		var empty []string
		for _, pred := range positiveBody(p) {
			if !nonempty[pred] {
				empty = append(empty, pred)
			}
		}
		sort.Strings(empty)
		r.Findings = append(r.Findings, Finding{
			Severity: Warning, Code: CodeDeadRule, Pos: p.Src.Pos, Rule: p.Src.String(),
			Msg: fmt.Sprintf("rule can never fire: %s always empty (no base case or assertable source reaches it)",
				strings.Join(empty, ", ")),
		})
	}
}

// checkUnusedRelations reports declared predicates that no rule, fact, or
// non-declaration constraint ever mentions, by name or as a generic parameter.
func checkUnusedRelations(r *Report, prog *datalog.Program, cat *engine.Catalog) {
	used := map[string]bool{}
	var useTerm func(t datalog.Term)
	useTerm = func(t datalog.Term) {
		switch tt := t.(type) {
		case datalog.FuncApp:
			name := tt.Pred
			if tt.Param != "" {
				name = tt.Pred + "$" + tt.Param
				used[tt.Param] = true
			}
			used[name] = true
			for _, a := range tt.Args {
				useTerm(a)
			}
		case datalog.BinExpr:
			useTerm(tt.L)
			useTerm(tt.R)
		}
	}
	// A generic parameter (anon_says['req](…)) names its relation: the
	// instantiated rules read or derive it, so it counts as a use.
	useAtom := func(a *datalog.Atom) {
		used[a.ConcreteName()] = true
		if a.Param != "" {
			used[a.Param] = true
		}
		for _, t := range a.Args {
			useTerm(t)
		}
	}
	useLit := func(l datalog.Literal) {
		if l.Kind == datalog.LitAtom || l.Kind == datalog.LitNeg {
			useAtom(l.Atom)
		} else {
			useTerm(l.L)
			useTerm(l.R)
		}
	}
	for _, rule := range prog.Rules {
		for _, h := range rule.Heads {
			useAtom(h)
		}
		for _, l := range rule.Body {
			useLit(l)
		}
	}
	for _, con := range prog.Constraints {
		if engine.IsDeclaration(con) {
			continue
		}
		for _, l := range con.Lhs {
			useLit(l)
		}
		for _, l := range con.Rhs {
			useLit(l)
		}
	}
	for _, f := range prog.Facts {
		useAtom(f)
	}
	for _, con := range prog.Constraints {
		if !engine.IsDeclaration(con) {
			continue
		}
		name := con.Lhs[0].Atom.ConcreteName()
		if used[name] {
			continue
		}
		r.Findings = append(r.Findings, Finding{
			Severity: Warning, Code: CodeUnusedRelation, Pos: con.Pos,
			Msg: fmt.Sprintf("relation %s is declared but never used by any rule, fact, or constraint", name),
		})
	}
}

// JoinEdge is one equi-join constraint observed in a rule body: the two
// relation columns are joined on a shared variable.
type JoinEdge struct {
	LeftPred  string
	LeftCol   int
	RightPred string
	RightCol  int
	Var       string
	Rule      string
	Pos       datalog.Pos
}

// buildJoinGraph extracts the join-attribute graph from the plans: for
// every rule, every variable shared between two positive relation atoms
// contributes an equi-join edge between the corresponding columns. A
// variable's edges start from its occurrence earliest in source, at that
// position, so the graph does not depend on the order a plan runs the atoms.
func buildJoinGraph(plans []engine.RulePlan) []JoinEdge {
	var edges []JoinEdge
	for _, p := range plans {
		if p.Err != nil {
			continue
		}
		type occ struct {
			pred string
			col  int
			pos  datalog.Pos
		}
		byVar := map[string][]occ{}
		var varOrder []string
		for _, s := range p.Steps {
			if s.Kind != engine.StepMatch {
				continue
			}
			for i, t := range s.Atom.Args {
				v, ok := t.(datalog.Var)
				if !ok || strings.HasPrefix(v.Name, "$") {
					continue
				}
				if len(byVar[v.Name]) == 0 {
					varOrder = append(varOrder, v.Name)
				}
				byVar[v.Name] = append(byVar[v.Name], occ{pred: s.Pred, col: i, pos: s.Atom.Pos})
			}
		}
		for _, v := range varOrder {
			occs := byVar[v]
			sort.SliceStable(occs, func(i, j int) bool { return before(occs[i].pos, occs[j].pos) })
			for i := 1; i < len(occs); i++ {
				if occs[0].pred == occs[i].pred && occs[0].col == occs[i].col {
					continue
				}
				edges = append(edges, JoinEdge{
					LeftPred: occs[0].pred, LeftCol: occs[0].col,
					RightPred: occs[i].pred, RightCol: occs[i].col,
					Var: v, Rule: p.Src.String(), Pos: occs[0].pos,
				})
			}
		}
	}
	return edges
}

// checkCopartitioning reports relations whose joins demand partitioning on
// two different columns — no single hash function keeps all their joins
// node-local, so distributing them forces data movement — each at the
// earliest source position among the relation's joins.
func checkCopartitioning(r *Report, joins []JoinEdge) {
	cols := map[string]map[int]bool{}
	firstPos := map[string]datalog.Pos{}
	note := func(pred string, col int, pos datalog.Pos) {
		m := cols[pred]
		if m == nil {
			m = map[int]bool{}
			cols[pred] = m
		}
		m[col] = true
		if first, ok := firstPos[pred]; !ok || before(pos, first) {
			firstPos[pred] = pos
		}
	}
	// A self-join on different columns defeats co-partitioning just like a
	// pair of joins on different columns does, so both endpoints count.
	for _, e := range joins {
		note(e.LeftPred, e.LeftCol, e.Pos)
		note(e.RightPred, e.RightCol, e.Pos)
	}
	var preds []string
	for p, m := range cols {
		if len(m) > 1 {
			preds = append(preds, p)
		}
	}
	sort.Strings(preds)
	for _, p := range preds {
		var cs []int
		for c := range cols[p] {
			cs = append(cs, c)
		}
		sort.Ints(cs)
		parts := make([]string, len(cs))
		for i, c := range cs {
			parts[i] = fmt.Sprint(c)
		}
		r.Findings = append(r.Findings, Finding{
			Severity: Warning, Code: CodeNonCopartition, Pos: firstPos[p],
			Msg: fmt.Sprintf("relation %s joins on columns {%s}; no single hash partitioning keeps all its joins node-local",
				p, strings.Join(parts, ", ")),
		})
	}
}
