package engine

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"secureblox/internal/datalog"
)

type stepKind uint8

const (
	stepMatch     stepKind = iota // positive relation atom
	stepNeg                       // negated relation atom (filter)
	stepCmp                       // comparison / binding
	stepUDF                       // user-defined function atom
	stepKindCheck                 // builtin type check (constraints only)
)

// noProbe is step.probe for a step without an access path: a scan.
const noProbe = -1

// step is one planned body operation. The source form (atom, l/r, checked)
// is kept for diagnostics and type checking; execution uses the compiled
// slot-addressed form filled in by finalizeSteps after planning. A step names
// relations, indexes and UDFs by the program's numbers, never by pointer, so
// one plan runs in every workspace bound to the program.
type step struct {
	kind     stepKind
	pred     string // concrete predicate name (match/neg), UDF name (udf)
	param    string // UDF parameterization
	atom     *datalog.Atom
	op       string // cmp operator
	l, r     datalog.Term
	typeName string       // stepKindCheck
	checked  datalog.Term // stepKindCheck operand

	// Compiled execution form.
	args     []cterm // match/neg/udf: slot-compiled arguments
	cl, cr   *cterm  // cmp operands
	cchecked *cterm  // kind-check operand
	// rel is the relation's number (match/neg) or the UDF's (udf).
	rel int
	// boundCols are the argument positions (ascending) holding a constant
	// or a variable bound by an earlier step — the step's probe signature,
	// derived from the planner's binding-order analysis.
	boundCols []int
	// probe is the step's access path, a position in its relation's index
	// list (Relation.idx), and probeCols the argument positions whose values it
	// is probed with; noProbe when nothing is bound (a scan).
	probe     int
	probeCols []int
	// earlier marks a delta plan's match step whose atom precedes the plan's
	// delta atom in the body: within a fixpoint round it does not see the
	// round's delta, which the plan led by its own atom ranges over.
	earlier bool
}

// deltaPlan is a delta-first plan: steps[0] is the delta atom, ranged over the
// delta's rows — or, in a full evaluation, over its whole relation — and the
// rest is ordered from what it binds. pre are the plan's location lookups —
// self[] and principal_node[self[]] — which no rule derives into, so within a
// fixpoint each has one value: they are resolved once, before the leading
// scan, and the delta atom's unification already sees what they bind. A body
// with no positive atom has one plan that no atom leads, ordered from
// nothing, which only a full evaluation runs.
type deltaPlan struct {
	pre, steps []step
}

// led reports whether a positive atom leads the plan.
func (p *deltaPlan) led() bool { return len(p.steps) > 0 && p.steps[0].kind == stepMatch }

// headEx is a head-existential variable with its entity type. Its Skolem
// table maps the rule's body binding (bodySlots, in order) to the entity it
// minted.
type headEx struct {
	name   string
	entSym uint32 // the entity type's symbol
	rel    int    // the entity type's relation
	slot   int
	skolem int
}

// CompiledRule is a planned derivation rule.
type CompiledRule struct {
	id  int // position in Program.rules
	src *datalog.Rule
	// err is why the rule could not be planned (PlanProgram only); nothing
	// else is set then.
	err   error
	heads []*datalog.Atom // args are Var / Const / BinExpr only
	// deltaPlans holds one plan per positive body atom with that atom
	// leading: a semi-naïve evaluation runs the plan of its delta atom, so
	// it loops over the delta and probes stored relations from there on. A
	// full evaluation (the first pass of Bind and of Retract's recompute,
	// aggregate recomputes) runs deltaPlans[0] over the whole relation. All
	// plans share the rule's slot numbering.
	deltaPlans []deltaPlan
	bodyVars   []string // sorted variable names bound by the body
	exVars     []headEx
	agg        *datalog.AggSpec

	slotNames   []string
	cheads      [][]cterm // slot-compiled head arguments, parallel to heads
	headRels    []int
	bodySlots   []int // slots of bodyVars, in the same (name-sorted) order
	aggOverSlot int   // slot of agg.Over, -1 when absent
	// aggNo numbers an aggregate rule's group table among its workspace's.
	aggNo int
}

// String returns the source form of the rule.
func (r *CompiledRule) String() string { return r.src.String() }

// CompiledConstraint is a planned integrity constraint. LHS and RHS share
// one slot space so an LHS binding seeds the RHS satisfiability query.
type CompiledConstraint struct {
	src      *datalog.Constraint
	rhsSteps []step
	// lhsDeltaPlans holds one delta-first LHS plan per LHS atom (see
	// CompiledRule.deltaPlans), the first of which a full verification runs;
	// every plan binds the same variables, so they all seed the one RHS plan.
	lhsDeltaPlans []deltaPlan
	// storeChecked marks a constraint that only restates the declared
	// argument kinds checkTuple enforces on every insert: a transaction's
	// check skips it, the full verification that ends Bind and Retract's
	// recompute still runs it.
	storeChecked bool

	slotNames []string
}

// String returns the source form of the constraint.
func (c *CompiledConstraint) String() string { return c.src.String() }

// Program is a compiled program: its catalog, its relations by number with
// the indexes its plans probe, every rule and constraint planned — delta-first
// plans, slot numbering, compiled terms with their constants, head
// existentials — and its source facts. None of it depends on a node, so
// a process compiles a program once and every workspace it binds to
// (Workspace.Bind) runs it: a Program is immutable once returned and safe for
// concurrent use. What differs per node — relations, the keystore-bound UDFs,
// the frame, UDF argument scratch, aggregate group and Skolem tables — each
// workspace keeps for itself.
type Program struct {
	cat   *Catalog
	relNo map[string]int
	rels  []relSpec
	// syms interns the constants: a workspace bound to the program starts
	// its own intern table as a copy, so a compiled constant is one cell in
	// every workspace.
	syms *symtab
	udfs []string // UDF names, by the number a step calls them by

	rules       []*CompiledRule // by id
	aggs        []*CompiledRule // the rules with an aggregate, by id
	skolems     []relSpec       // the head existentials' Skolem tables, by number
	constraints []*CompiledConstraint
	facts       []progFact // its source facts
	// planned lists this program's rules in source order, those that could
	// not be planned included (PlanProgram's view).
	planned []*CompiledRule
	// slots and udfArity size the frame and the UDF argument vector a
	// workspace needs for any plan of the program.
	slots, udfArity int
	// err is the first compile error; only PlanProgram hands out a program
	// that has one.
	err error
}

// relSpec is what a program knows of one relation: its schema, the checks an
// insert runs, the secondary indexes its plans probe (in registration order,
// after the primary and the functional index), the rules with a delta plan
// led by it (rules, aggs), by id, and for an entity type the Skolem tables
// that mint it.
type relSpec struct {
	schema      *Schema
	kinds       []argKind
	indexes     [][]int
	rules, aggs []*CompiledRule
	skolems     []int
}

// progFact is a source fact of a program, ground at compile time.
type progFact struct {
	rel   int
	tuple datalog.Tuple
}

// Catalog returns the program's predicate catalog. It must not be modified.
func (p *Program) Catalog() *Catalog { return p.cat }

// builtin is the program every workspace starts with: the principal, self and
// principal_node relations of NewCatalog, and nothing else.
var builtin = func() *Program {
	p := &Program{cat: NewCatalog(), relNo: map[string]int{}, syms: &symtab{}}
	c := &compiler{p: p}
	for _, name := range []string{"principal", "self", "principal_node"} {
		c.relation(name)
	}
	c.finish()
	return p
}()

// Compile compiles a program once for every workspace that will run it: the
// UDF registry resolves which atoms are UDF calls and when they can be
// evaluated — planning never calls Eval, so any registry with the same names
// and binding shapes does — and each workspace binds its own registry's UDFs
// by name (Workspace.Bind).
func Compile(prog *datalog.Program, udfs *UDFRegistry) (*Program, error) {
	return compile(prog, udfs, true)
}

// PlanProgram compiles a program as far as it goes for the static analyzer:
// a rule whose body cannot be planned is reported in its RulePlan.Err rather
// than failing the program, so the analyzer sees every rule. It fails only on
// a declaration that cannot be registered. The Program is a view (Plans,
// Catalog): one that Compile would reject cannot be bound.
func PlanProgram(prog *datalog.Program, udfs *UDFRegistry) (*Program, error) {
	return compile(prog, udfs, false)
}

// extend returns a copy of p to compile more onto: the catalog, the relation
// numbering and the lists are the copy's own, everything they point to is
// shared and left as it is.
func (p *Program) extend() *Program {
	return &Program{
		cat:         &Catalog{schemas: maps.Clone(p.cat.schemas)},
		relNo:       maps.Clone(p.relNo),
		rels:        slices.Clone(p.rels),
		syms:        p.syms,
		udfs:        slices.Clip(p.udfs),
		rules:       slices.Clip(p.rules),
		aggs:        slices.Clip(p.aggs),
		skolems:     slices.Clip(p.skolems),
		constraints: slices.Clip(p.constraints),
		slots:       p.slots,
		udfArity:    p.udfArity,
	}
}

// compile compiles prog onto builtin, interning its constants into a table of
// its own. With strict it fails at the first error; otherwise (PlanProgram) it
// fails only on a declaration, carries on past everything else, records a rule
// it cannot plan in the rule's err and the first error of any kind in the
// program's.
func compile(prog *datalog.Program, udfs *UDFRegistry, strict bool) (*Program, error) {
	p := builtin.extend()
	p.syms = &symtab{}
	c := &compiler{p: p, reg: udfs}
	fail := func(err error) bool {
		if p.err == nil {
			p.err = err
		}
		return strict
	}

	// Declarations first so later compilation sees schemas.
	for _, con := range prog.Constraints {
		if IsDeclaration(con) {
			if _, err := p.cat.DeclareFromConstraint(con); err != nil {
				return nil, err
			}
			c.relation(con.Lhs[0].Atom.ConcreteName())
		}
	}
	for _, r := range prog.Rules {
		cr, err := c.planRule(r)
		if err != nil {
			if fail(err) {
				return nil, err
			}
			p.planned = append(p.planned, &CompiledRule{src: r, err: err})
			continue
		}
		p.planned = append(p.planned, cr)
		if err := c.checkRuleTypes(cr); err != nil && fail(err) {
			return nil, err
		}
		if err := c.finalizeRule(cr); err != nil {
			if fail(err) {
				return nil, err
			}
			continue
		}
		cr.id = len(p.rules)
		p.rules = append(p.rules, cr)
		if cr.agg != nil {
			cr.aggNo = len(p.aggs)
			p.aggs = append(p.aggs, cr)
		}
		for i := range cr.exVars {
			ex := &cr.exVars[i]
			ex.skolem = len(p.skolems)
			p.skolems = append(p.skolems, relSpec{schema: &Schema{Arity: len(cr.bodySlots) + 1, KeyArity: len(cr.bodySlots)}})
			p.rels[ex.rel].skolems = append(p.rels[ex.rel].skolems, ex.skolem)
		}
	}
	for _, con := range prog.Constraints {
		cc, err := c.compileConstraint(con)
		if err != nil {
			if fail(err) {
				return nil, err
			}
			continue
		}
		p.constraints = append(p.constraints, cc)
	}
	for _, a := range prog.Facts {
		f, err := c.groundFact(a)
		if err != nil {
			if fail(err) {
				return nil, err
			}
			continue
		}
		p.facts = append(p.facts, f)
	}
	c.finish()
	return p, nil
}

// compiler carries one compilation's state: the program being built, the UDF
// registry it plans against, and per rule or constraint the fresh variable
// numbering and the extra literals produced by term normalization.
type compiler struct {
	p   *Program
	reg *UDFRegistry

	freshN int
	extra  []datalog.Literal
	// apps maps the functional applications normalized so far, by their text
	// over normalized keys, to the variable each was given. A rule or
	// constraint that writes self[] three times means one value — the
	// functional dependency says so — and gets one variable, one atom, one
	// lookup and one delta plan for it.
	apps map[string]datalog.Var
}

// reset starts a rule's or a constraint's normalization.
func (c *compiler) reset() { c.freshN, c.apps = 0, nil }

// relation returns the number of the relation named name, numbering it if it
// is new; its schema is in the catalog.
func (c *compiler) relation(name string) int {
	if i, ok := c.p.relNo[name]; ok {
		return i
	}
	i := len(c.p.rels)
	c.p.rels = append(c.p.rels, relSpec{schema: c.p.cat.Schema(name)})
	c.p.relNo[name] = i
	return i
}

// udf returns the number of the UDF called name, numbering it if it is new;
// false if the registry has no such UDF.
func (c *compiler) udf(name string) (int, bool) {
	if _, ok := c.reg.Lookup(name); !ok {
		return 0, false
	}
	if i := slices.Index(c.p.udfs, name); i >= 0 {
		return i, true
	}
	c.p.udfs = append(c.p.udfs, name)
	return len(c.p.udfs) - 1, true
}

// index returns the position in relation rel's index list of the secondary
// index over cols, registering it if it is new. The primary index is at 0 and
// a functional relation's key index at 1; secondary indexes follow in the
// order they were registered, in every workspace alike.
func (c *compiler) index(rel int, cols []int) int {
	spec := &c.p.rels[rel]
	first := 1
	if spec.schema.Functional() {
		first = 2
	}
	for k, x := range spec.indexes {
		if slices.Equal(x, cols) {
			return first + k
		}
	}
	// The list may be the base program's: append to a copy.
	spec.indexes = append(slices.Clip(spec.indexes), slices.Clone(cols))
	return first + len(spec.indexes) - 1
}

// finish resolves every relation's schema, declared-argument checks and rule
// lists against the finished catalog and rule set. A type name starts to be
// checked when it is declared an entity, so the base program's relations are
// resolved again too. The lists are in ascending id order — fixpoint's
// per-round merge relies on it.
func (c *compiler) finish() {
	p := c.p
	for i := range p.rels {
		spec := &p.rels[i]
		spec.schema = p.cat.Schema(spec.schema.Name)
		spec.kinds = nil
		for _, at := range spec.schema.ArgTypes {
			spec.kinds = append(spec.kinds, p.cat.argKind(at))
		}
		spec.rules, spec.aggs = nil, nil
	}
	// A rule with two delta plans led by one relation is listed there once:
	// rules are listed one after another, so a repeat is the list's last entry.
	listOnce := func(list []*CompiledRule, r *CompiledRule) []*CompiledRule {
		if len(list) > 0 && list[len(list)-1] == r {
			return list
		}
		return append(list, r)
	}
	for _, r := range p.rules {
		for _, plan := range r.deltaPlans {
			if !plan.led() {
				continue
			}
			spec := &p.rels[plan.steps[0].rel]
			if r.agg != nil {
				spec.aggs = listOnce(spec.aggs, r)
			} else {
				spec.rules = listOnce(spec.rules, r)
			}
		}
	}
	for _, r := range p.rules {
		p.slots = max(p.slots, len(r.slotNames))
	}
	for _, cc := range p.constraints {
		p.slots = max(p.slots, len(cc.slotNames))
	}
}

func (c *compiler) fresh() string {
	c.freshN++
	return fmt.Sprintf("$t%d", c.freshN)
}

// normalizeTerm rewrites FuncApp terms into auxiliary functional-atom
// literals and (in body position) arithmetic expressions into binding
// comparisons, returning a plain Var/Const/Wildcard (or, if inHead, possibly
// a BinExpr over plain terms).
func (c *compiler) normalizeTerm(t datalog.Term, inHead bool) (datalog.Term, error) {
	switch tt := t.(type) {
	case datalog.Var, datalog.Const, datalog.Wildcard:
		return t, nil
	case datalog.FuncApp:
		args := make([]datalog.Term, 0, len(tt.Args)+1)
		for _, a := range tt.Args {
			na, err := c.normalizeTerm(a, false)
			if err != nil {
				return nil, err
			}
			args = append(args, na)
		}
		key := datalog.FuncApp{Pred: tt.Pred, Param: tt.Param, Args: args}.String()
		if v, ok := c.apps[key]; ok {
			return v, nil
		}
		v := datalog.Var{Name: c.fresh()}
		if !slices.Contains(args, datalog.Term(datalog.Wildcard{})) { // p[_] twice may be two values
			if c.apps == nil {
				c.apps = make(map[string]datalog.Var)
			}
			c.apps[key] = v
		}
		atom := &datalog.Atom{
			Pred:     tt.Pred,
			Param:    tt.Param,
			Args:     append(args, v),
			KeyArity: len(tt.Args),
		}
		c.extra = append(c.extra, datalog.Literal{Kind: datalog.LitAtom, Atom: atom})
		return v, nil
	case datalog.BinExpr:
		l, err := c.normalizeTerm(tt.L, false)
		if err != nil {
			return nil, err
		}
		r, err := c.normalizeTerm(tt.R, false)
		if err != nil {
			return nil, err
		}
		e := datalog.BinExpr{Op: tt.Op, L: l, R: r}
		if inHead {
			return e, nil
		}
		v := datalog.Var{Name: c.fresh()}
		c.extra = append(c.extra, datalog.Literal{Kind: datalog.LitCmp, Op: "=", L: v, R: e})
		return v, nil
	default:
		return nil, fmt.Errorf("unsupported term %T", t)
	}
}

func (c *compiler) normalizeAtom(a *datalog.Atom, inHead bool) (*datalog.Atom, error) {
	na := &datalog.Atom{Pred: a.Pred, Param: a.Param, KeyArity: a.KeyArity, Pos: a.Pos}
	for _, t := range a.Args {
		nt, err := c.normalizeTerm(t, inHead)
		if err != nil {
			return nil, err
		}
		na.Args = append(na.Args, nt)
	}
	return na, nil
}

// normalizeLiterals flattens FuncApps/expressions out of a literal list.
func (c *compiler) normalizeLiterals(lits []datalog.Literal) ([]datalog.Literal, error) {
	var out []datalog.Literal
	for _, l := range lits {
		c.extra = c.extra[:0]
		switch l.Kind {
		case datalog.LitAtom, datalog.LitNeg:
			na, err := c.normalizeAtom(l.Atom, false)
			if err != nil {
				return nil, err
			}
			out = append(out, c.extra...)
			out = append(out, datalog.Literal{Kind: l.Kind, Atom: na})
		case datalog.LitCmp:
			nl, err := c.normalizeTerm(l.L, false)
			if err != nil {
				return nil, err
			}
			nr, err := c.normalizeTerm(l.R, false)
			if err != nil {
				return nil, err
			}
			out = append(out, c.extra...)
			out = append(out, datalog.Literal{Kind: datalog.LitCmp, Op: l.Op, L: nl, R: nr})
		}
	}
	return out, nil
}

// declare auto-declares the relation an atom names and returns its number.
func (c *compiler) declare(a *datalog.Atom) (int, error) {
	if _, err := c.p.cat.AutoDeclare(a); err != nil {
		return 0, err
	}
	return c.relation(a.ConcreteName()), nil
}

// litToStep converts a normalized literal to an unplanned step.
func (c *compiler) litToStep(l datalog.Literal) (step, error) {
	switch l.Kind {
	case datalog.LitAtom:
		if u, ok := c.udf(l.Atom.Pred); ok {
			return step{kind: stepUDF, pred: l.Atom.Pred, param: l.Atom.Param, atom: l.Atom, rel: u, probe: noProbe}, nil
		}
		rel, err := c.declare(l.Atom)
		if err != nil {
			return step{}, err
		}
		return step{kind: stepMatch, pred: l.Atom.ConcreteName(), atom: l.Atom, rel: rel, probe: noProbe}, nil
	case datalog.LitNeg:
		if _, ok := c.reg.Lookup(l.Atom.Pred); ok {
			return step{}, fmt.Errorf("cannot negate UDF atom %s", l.Atom)
		}
		rel, err := c.declare(l.Atom)
		if err != nil {
			return step{}, err
		}
		return step{kind: stepNeg, pred: l.Atom.ConcreteName(), atom: l.Atom, rel: rel, probe: noProbe}, nil
	default:
		return step{kind: stepCmp, op: l.Op, l: l.L, r: l.R, probe: noProbe}, nil
	}
}

// termBound reports whether every variable of a plain term is bound.
func termBound(t datalog.Term, bound map[string]bool) bool {
	switch tt := t.(type) {
	case datalog.Var:
		return bound[tt.Name]
	case datalog.BinExpr:
		return termBound(tt.L, bound) && termBound(tt.R, bound)
	}
	return true
}

// boundColsOf is a step's probe signature: the argument positions that hold a
// constant or a variable in bound at this point of the plan. At runtime
// exactly these positions carry values, so an index over them can be
// registered now and probed then.
func boundColsOf(a *datalog.Atom, bound map[string]bool) []int {
	var cols []int
	for i, t := range a.Args {
		switch tt := t.(type) {
		case datalog.Const:
			cols = append(cols, i)
		case datalog.Var:
			if bound[tt.Name] {
				cols = append(cols, i)
			}
		}
	}
	return cols
}

// planSteps orders steps greedily so that every step runs with sufficient
// bindings: binding/filter comparisons and ready negations first, then
// matches sharing bound variables (functional lookups preferred), then
// ready UDFs, then cartesian matches as a last resort. With lead ≥ 0,
// unplanned[lead] is the plan's first step whatever its bindings — the delta
// atom of a delta-first plan, whose variables bound already holds — and the
// rest are ordered from there, each match before it in unplanned marked
// earlier. The steps skip marks (a delta plan's location lookups) are left
// out. unplanned is not modified.
func (c *compiler) planSteps(unplanned []step, bound map[string]bool, lead int, skip []bool) ([]step, error) {
	taken := make([]bool, len(unplanned))
	n := len(unplanned)
	for i, s := range skip {
		taken[i] = s
		if s {
			n--
		}
	}
	out := make([]step, 0, n)
	if lead >= 0 {
		out, taken[lead] = append(out, unplanned[lead]), true
	}

	allBound := func(t datalog.Term) bool { return termBound(t, bound) }
	var mask []bool // atomBoundMask's, reused
	atomBoundMask := func(a *datalog.Atom) (nBound int) {
		mask = mask[:0]
		for _, t := range a.Args {
			b := false
			switch tt := t.(type) {
			case datalog.Const:
				b = true
			case datalog.Var:
				b = bound[tt.Name]
			case datalog.Wildcard:
				// unbound, but requires nothing
			}
			if b {
				nBound++
			}
			mask = append(mask, b)
		}
		return nBound
	}
	bindAtomVars := func(a *datalog.Atom) {
		for _, t := range a.Args {
			if v, ok := t.(datalog.Var); ok {
				bound[v.Name] = true
			}
		}
	}
	// next returns the first step not yet planned after index i, of kind k.
	next := func(i int, k stepKind) int {
		for i++; i < len(unplanned); i++ {
			if !taken[i] && unplanned[i].kind == k {
				return i
			}
		}
		return -1
	}

	for len(out) < n {
		picked := -1
		// 1. comparisons: filters with everything bound, or "=" binders.
		for i := next(-1, stepCmp); i >= 0 && picked < 0; i = next(i, stepCmp) {
			s := &unplanned[i]
			switch {
			case allBound(s.l) && allBound(s.r):
				picked = i
			case s.op == "=":
				if lv, ok := s.l.(datalog.Var); ok && !bound[lv.Name] && allBound(s.r) {
					picked = i
				} else if rv, ok := s.r.(datalog.Var); ok && !bound[rv.Name] && allBound(s.l) {
					picked = i
				}
			}
		}
		// 2. ready negations.
		for i := next(-1, stepNeg); i >= 0 && picked < 0; i = next(i, stepNeg) {
			ready := true
			for _, t := range unplanned[i].atom.Args {
				if v, ok := t.(datalog.Var); ok && !bound[v.Name] {
					ready = false
					break
				}
			}
			if ready {
				picked = i
			}
		}
		// 3. kind checks with bound operands.
		for i := next(-1, stepKindCheck); i >= 0 && picked < 0; i = next(i, stepKindCheck) {
			if allBound(unplanned[i].checked) {
				picked = i
			}
		}
		// 4. matches: prefer functional with all keys bound, then most
		// bound arguments.
		if picked < 0 {
			best, bestScore := -1, -1
			for i := next(-1, stepMatch); i >= 0; i = next(i, stepMatch) {
				a := unplanned[i].atom
				n := atomBoundMask(a)
				score := n * 2
				if a.Functional() && !slices.Contains(mask[:a.KeyArity], false) {
					score += 100
				}
				if score > bestScore && n > 0 {
					best, bestScore = i, score
				}
			}
			picked = best
		}
		// 5. ready UDFs.
		for i := next(-1, stepUDF); i >= 0 && picked < 0; i = next(i, stepUDF) {
			atomBoundMask(unplanned[i].atom)
			if u, _ := c.reg.Lookup(unplanned[i].pred); u.CanEval(mask) {
				picked = i
			}
		}
		// 6. any match at all (cartesian start).
		if picked < 0 {
			picked = next(-1, stepMatch)
		}
		if picked < 0 {
			return nil, fmt.Errorf("cannot order body: %d literal(s) never become evaluable (first: %s)",
				n-len(out), describeStep(unplanned[slices.Index(taken, false)]))
		}
		s := unplanned[picked]
		taken[picked] = true
		switch s.kind {
		case stepMatch:
			s.boundCols, s.earlier = boundColsOf(s.atom, bound), picked < lead
			bindAtomVars(s.atom)
		case stepNeg:
			s.boundCols = boundColsOf(s.atom, bound)
		case stepUDF:
			bindAtomVars(s.atom)
		case stepCmp:
			if s.op == "=" {
				if lv, ok := s.l.(datalog.Var); ok {
					bound[lv.Name] = true
				}
				if rv, ok := s.r.(datalog.Var); ok {
					bound[rv.Name] = true
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// planDeltaPlans orders the body once per positive atom with that atom
// leading (textbook semi-naïve): the leading step ranges over the delta
// tuples with nothing bound before it but the plan's location lookups — its
// constants, repeated variables and looked-up locations are checked by
// unification — and planSteps orders the remaining literals from the
// variables it binds, so every later step is probed, not scanned. A match
// before the delta atom in the body is marked earlier: within a round it
// reads its relation without the round's delta, one after it with it, so of
// the plans a round runs only the one led by a binding's first delta atom
// finds that binding. A body with no positive atom gets one plan ordered from
// nothing. It also returns the variables the body binds, which every plan
// binds alike.
func (c *compiler) planDeltaPlans(unplanned []step) ([]deltaPlan, map[string]bool, error) {
	var plans []deltaPlan
	var bound map[string]bool
	for i := range unplanned {
		if unplanned[i].kind != stepMatch {
			continue
		}
		bound = map[string]bool{}
		pre, picked := locationLookups(unplanned, i, bound)
		datalog.AtomVars(unplanned[i].atom, bound)
		steps, err := c.planSteps(unplanned, bound, i, picked)
		if err != nil {
			return nil, nil, err
		}
		plans = append(plans, deltaPlan{pre: pre, steps: steps})
	}
	if plans == nil {
		bound = map[string]bool{}
		steps, err := c.planSteps(unplanned, bound, -1, nil)
		if err != nil {
			return nil, nil, err
		}
		plans = append(plans, deltaPlan{steps: steps})
	}
	return plans, bound, nil
}

// isLocation reports whether a relation holds the node's location: no rule
// may derive into one (planRule), so none changes inside a fixpoint.
func isLocation(pred string) bool { return pred == "self" || pred == "principal_node" }

// locationLookups returns the steps the delta plan led by unplanned[lead]
// resolves before its leading scan, each one functional probe: every other
// self atom, and every other principal_node atom whose key is a constant or
// a variable such a lookup binds — in practice principal_node[self[]]. They
// come in the order they bind each other, with their probe signatures; what
// they bind is added to bound, and picked marks their positions in
// unplanned. The plan led by a location atom itself keeps it as its delta
// atom, which is how the setup transaction that asserts the location fires
// the rules.
func locationLookups(unplanned []step, lead int, bound map[string]bool) (pre []step, picked []bool) {
	picked = make([]bool, len(unplanned))
	for grew := true; grew; {
		grew = false
		for j := range unplanned {
			s := unplanned[j]
			if j == lead || picked[j] || s.kind != stepMatch || !isLocation(s.pred) {
				continue
			}
			if s.boundCols = boundColsOf(s.atom, bound); s.pred == "principal_node" && !slices.Contains(s.boundCols, 0) {
				continue
			}
			pre, picked[j], grew = append(pre, s), true, true
			datalog.AtomVars(s.atom, bound)
		}
	}
	return pre, picked
}

// finalizeSteps compiles each planned step's terms against the slot
// allocator and selects its access path, every one a probe of one of the
// relation's indexes: the functional index when every key column is bound,
// the primary when every column is, otherwise a secondary index over the
// step's bound-column signature, registered with the relation now so every
// later probe is O(1). A step with nothing bound is a leading scan.
func (c *compiler) finalizeSteps(steps []step, sa *slotAlloc) {
	for i := range steps {
		s := &steps[i]
		switch s.kind {
		case stepMatch, stepNeg:
			s.args = sa.compileAtom(s.atom)
			schema := c.p.rels[s.rel].schema
			arity := len(s.atom.Args)
			// boundCols is ascending and only ever holds Const / bound-Var
			// positions, so its ka-th entry being ka-1 means exactly the key
			// columns 0..ka-1 lead it and will carry values at runtime.
			ka := schema.KeyArity
			switch nb := len(s.boundCols); {
			case s.kind == stepMatch && schema.Functional() && ka <= arity && nb >= ka && (ka == 0 || s.boundCols[ka-1] == ka-1):
				s.probe, s.probeCols = 1, s.boundCols[:ka:ka]
			case nb > 0 && nb == arity:
				s.probe, s.probeCols = 0, s.boundCols
			case nb > 0:
				s.probe, s.probeCols = c.index(s.rel, s.boundCols), s.boundCols
			}
		case stepCmp:
			cl := sa.compileTerm(s.l)
			cr := sa.compileTerm(s.r)
			s.cl, s.cr = &cl, &cr
		case stepUDF:
			s.args = sa.compileAtom(s.atom)
			c.p.udfArity = max(c.p.udfArity, len(s.args))
		case stepKindCheck:
			cc := sa.compileTerm(s.checked)
			s.cchecked = &cc
		}
	}
}

// finalizeDeltaPlans compiles a body's plans against one slot numbering. A
// leading step only unifies the rows it ranges over, so it gets compiled
// arguments and no access path; a location lookup gets the functional index.
func (c *compiler) finalizeDeltaPlans(plans []deltaPlan, sa *slotAlloc) {
	for _, plan := range plans {
		c.finalizeSteps(plan.pre, sa)
		rest := plan.steps
		if plan.led() {
			rest[0].args = sa.compileAtom(rest[0].atom)
			rest = rest[1:]
		}
		c.finalizeSteps(rest, sa)
	}
}

// describeStep renders a step as the literal it runs.
func describeStep(s step) string {
	switch s.kind {
	case stepNeg:
		return "!" + s.atom.String()
	case stepCmp:
		return fmt.Sprintf("%s %s %s", s.l, s.op, s.r)
	case stepKindCheck:
		return fmt.Sprintf("%s(%s)", s.typeName, s.checked)
	default:
		return s.atom.String()
	}
}

// planRule normalizes a rule and orders its body into its delta-first plans,
// recording the variables the body binds. The returned rule has no slot
// numbering yet — finalizeRule fixes the execution form; PlanProgram's view
// needs no more than this.
func (c *compiler) planRule(r *datalog.Rule) (*CompiledRule, error) {
	c.reset()
	body, err := c.normalizeLiterals(r.Body)
	if err != nil {
		return nil, fmt.Errorf("rule %s: %w", r, err)
	}
	var heads []*datalog.Atom
	var headRels []int
	for _, h := range r.Heads {
		c.extra = c.extra[:0]
		nh, err := c.normalizeAtom(h, true)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", r, err)
		}
		body = append(body, c.extra...)
		if _, ok := c.reg.Lookup(nh.Pred); ok {
			return nil, fmt.Errorf("rule %s: cannot derive into UDF %s", r, nh.Pred)
		}
		if isLocation(nh.ConcreteName()) {
			return nil, fmt.Errorf("rule %s: cannot derive into %s: it holds the node's location, which only facts assert", r, nh.Pred)
		}
		rel, err := c.declare(nh)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", r, err)
		}
		heads = append(heads, nh)
		headRels = append(headRels, rel)
	}
	var unplanned []step
	for _, l := range body {
		s, err := c.litToStep(l)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", r, err)
		}
		unplanned = append(unplanned, s)
	}
	deltaPlans, bound, err := c.planDeltaPlans(unplanned)
	if err != nil {
		return nil, fmt.Errorf("rule %s: %w", r, err)
	}
	return &CompiledRule{src: r, heads: heads, headRels: headRels, deltaPlans: deltaPlans,
		bodyVars: slices.Sorted(maps.Keys(bound)), agg: r.Agg, aggOverSlot: -1}, nil
}

// finalizeRule compiles a planned rule's execution form: slot allocation,
// access-path selection and index registration, head compilation, and
// head-existential analysis.
func (c *compiler) finalizeRule(cr *CompiledRule) error {
	r, heads := cr.src, cr.heads
	bound := make(map[string]bool, len(cr.bodyVars))
	for _, v := range cr.bodyVars {
		bound[v] = true
	}
	sa := newSlotAlloc(c.p.syms)
	c.finalizeDeltaPlans(cr.deltaPlans, sa)

	for _, h := range heads {
		cr.cheads = append(cr.cheads, sa.compileAtom(h))
	}
	for _, v := range cr.bodyVars {
		cr.bodySlots = append(cr.bodySlots, sa.slot(v))
	}

	// Identify head-existential variables and their entity types.
	headVars := map[string]bool{}
	for _, h := range heads {
		datalog.AtomVars(h, headVars)
	}
	for v := range headVars {
		if bound[v] {
			continue
		}
		if cr.agg != nil && v == cr.agg.Result {
			continue
		}
		entType := ""
		for _, h := range heads {
			if h.Functional() || len(h.Args) != 1 {
				continue
			}
			hv, ok := h.Args[0].(datalog.Var)
			if !ok || hv.Name != v {
				continue
			}
			if s := c.p.cat.Schema(h.ConcreteName()); s != nil && s.IsEntity {
				entType = h.ConcreteName()
				break
			}
		}
		if entType == "" {
			return fmt.Errorf("rule %s: head variable %s is unbound and has no entity type", r, v)
		}
		entSym, err := c.p.syms.intern(entType)
		if err != nil {
			return err
		}
		cr.exVars = append(cr.exVars, headEx{name: v, entSym: entSym, rel: c.relation(entType), slot: sa.slot(v)})
	}
	sort.Slice(cr.exVars, func(i, j int) bool { return cr.exVars[i].name < cr.exVars[j].name })

	if cr.agg != nil {
		if len(heads) != 1 || !heads[0].Functional() {
			return fmt.Errorf("rule %s: aggregation requires a single functional head", r)
		}
		if cr.agg.Over != "" && !bound[cr.agg.Over] {
			return fmt.Errorf("rule %s: aggregate variable %s not bound by body", r, cr.agg.Over)
		}
		val, ok := heads[0].Args[heads[0].KeyArity].(datalog.Var)
		if !ok || val.Name != cr.agg.Result {
			return fmt.Errorf("rule %s: aggregation head value must be the result variable %s", r, cr.agg.Result)
		}
		for i := 0; i < heads[0].KeyArity; i++ {
			if v, ok := heads[0].Args[i].(datalog.Var); ok && !bound[v.Name] {
				return fmt.Errorf("rule %s: aggregation group key %s not bound by body", r, v.Name)
			}
		}
		if cr.agg.Over != "" {
			cr.aggOverSlot = sa.slot(cr.agg.Over)
		}
	}
	cr.slotNames = sa.names
	return nil
}

// compileConstraint plans an integrity constraint. RHS atoms over builtin
// type predicates become kind checks; everything else is evaluated as a
// satisfiability query seeded with the LHS binding.
func (c *compiler) compileConstraint(con *datalog.Constraint) (*CompiledConstraint, error) {
	c.reset()
	lhs, err := c.normalizeLiterals(con.Lhs)
	if err != nil {
		return nil, fmt.Errorf("constraint %s: %w", con, err)
	}
	var lhsUnplanned []step
	for _, l := range lhs {
		if l.Kind == datalog.LitNeg {
			return nil, fmt.Errorf("constraint %s: negation not allowed on constraint LHS", con)
		}
		s, err := c.litToStep(l)
		if err != nil {
			return nil, fmt.Errorf("constraint %s: %w", con, err)
		}
		if s.kind == stepUDF {
			return nil, fmt.Errorf("constraint %s: UDF atoms not allowed on constraint LHS", con)
		}
		lhsUnplanned = append(lhsUnplanned, s)
	}
	lhsDeltaPlans, bound, err := c.planDeltaPlans(lhsUnplanned)
	if err != nil {
		return nil, fmt.Errorf("constraint %s: %w", con, err)
	}

	rhs, err := c.normalizeLiterals(con.Rhs)
	if err != nil {
		return nil, fmt.Errorf("constraint %s: %w", con, err)
	}
	var rhsUnplanned []step
	for _, l := range rhs {
		if l.Kind == datalog.LitAtom && len(l.Atom.Args) == 1 && l.Atom.Param == "" {
			_, isKind := builtinKinds[l.Atom.Pred]
			// Entity types are also kind checks: an entity value arriving
			// from a remote node is well-typed by construction even though
			// it is not (yet) a member of the local entity relation.
			if s := c.p.cat.Schema(l.Atom.Pred); isKind || (s != nil && s.IsEntity) {
				rhsUnplanned = append(rhsUnplanned, step{
					kind: stepKindCheck, typeName: l.Atom.Pred, checked: l.Atom.Args[0], probe: noProbe,
				})
				continue
			}
		}
		s, err := c.litToStep(l)
		if err != nil {
			return nil, fmt.Errorf("constraint %s: %w", con, err)
		}
		rhsUnplanned = append(rhsUnplanned, s)
	}
	rhsSteps, err := c.planSteps(rhsUnplanned, bound, -1, nil)
	if err != nil {
		return nil, fmt.Errorf("constraint %s: %w", con, err)
	}
	sa := newSlotAlloc(c.p.syms)
	c.finalizeDeltaPlans(lhsDeltaPlans, sa)
	c.finalizeSteps(rhsSteps, sa)
	return &CompiledConstraint{src: con, rhsSteps: rhsSteps, lhsDeltaPlans: lhsDeltaPlans,
		storeChecked: c.storeChecked(con, rhsSteps), slotNames: sa.names}, nil
}

// storeChecked reports whether a constraint only restates what checkTuple
// enforces on every insert: a declaration (IsDeclaration) whose right-hand
// side compiled to kind checks alone, each of a variable against the type the
// relation's schema declares for its column.
func (c *compiler) storeChecked(con *datalog.Constraint, rhs []step) bool {
	if !IsDeclaration(con) {
		return false
	}
	a := con.Lhs[0].Atom
	types := c.p.cat.Schema(a.ConcreteName()).ArgTypes
	for _, s := range rhs {
		if i := slices.Index(a.Args, s.checked); s.kind != stepKindCheck || types[i] != s.typeName {
			return false
		}
	}
	return true
}

// groundFact compiles a source fact: its relation, auto-declared, and its
// values, which must be constants.
func (c *compiler) groundFact(a *datalog.Atom) (progFact, error) {
	rel, err := c.declare(a)
	if err != nil {
		return progFact{}, err
	}
	tup := make(datalog.Tuple, len(a.Args))
	for i, t := range a.Args {
		k, ok := t.(datalog.Const)
		if !ok {
			return progFact{}, fmt.Errorf("fact %s is not ground", a)
		}
		tup[i] = k.Val
	}
	return progFact{rel: rel, tuple: tup}, nil
}
