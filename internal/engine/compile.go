package engine

import (
	"fmt"
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

// step is one planned body operation. The source form (atom, l/r, checked)
// is kept for diagnostics and type checking; execution uses the compiled
// slot-addressed form filled in by finalizeSteps after planning.
type step struct {
	kind     stepKind
	pred     string // concrete predicate name (match/neg/udf)
	param    string // UDF parameterization
	atom     *datalog.Atom
	op       string // cmp operator
	l, r     datalog.Term
	udf      UDF
	typeName string       // stepKindCheck
	checked  datalog.Term // stepKindCheck operand

	// Compiled execution form.
	args     []cterm // match/neg/udf: slot-compiled arguments
	cl, cr   *cterm  // cmp operands
	cchecked *cterm  // kind-check operand
	rel      *Relation
	// boundCols are the argument positions (ascending) holding a constant
	// or a variable bound by an earlier step — the step's probe signature,
	// derived from the planner's binding-order analysis.
	boundCols []int
	// probeIdx is the step's access path and probeCols the argument positions
	// whose values it is probed with; nil when nothing is bound (a scan).
	probeIdx  *hashIndex
	probeCols []int
	// udfArgs/udfMask are the UDF call's argument buffers, reused across
	// calls: a step is never re-entered while its own Eval is on the stack,
	// and no UDF retains its args.
	udfArgs []datalog.Value
	udfMask []bool
}

// headEx is a head-existential variable with its entity type.
type headEx struct {
	name    string
	entType string
	entSym  uint32    // entType's symbol
	rel     *Relation // entType's relation
	slot    int
}

// CompiledRule is a planned derivation rule.
type CompiledRule struct {
	id    int
	src   *datalog.Rule
	heads []*datalog.Atom // args are Var / Const / BinExpr only
	// steps is the static join order, used only by full evaluations (the
	// initial pass of Install, aggregate recomputes, Retract's rederive).
	steps []step
	// deltaPlans holds one plan per positive body atom with that atom
	// leading: a semi-naïve evaluation runs the plan of its delta atom, so
	// it loops over the delta and probes stored relations from there on.
	// All plans share the rule's slot numbering.
	deltaPlans [][]step
	bodyVars   []string // sorted variable names bound by the body
	exVars     []headEx
	agg        *datalog.AggSpec

	slotSpace
	cheads      [][]cterm // slot-compiled head arguments, parallel to heads
	headRels    []*Relation
	bodySlots   []int // slots of bodyVars, in the same (name-sorted) order
	aggOverSlot int   // slot of agg.Over, -1 when absent
	// aggKeys is the group table of an aggregate recompute: the group keys, by
	// row id the index of their accumulators in Workspace.aggCells.
	aggKeys *Relation

	// bound carries the planner's bound-variable set from planRule to
	// finalizeRule, which clears it.
	bound map[string]bool
}

// String returns the source form of the rule.
func (r *CompiledRule) String() string { return r.src.String() }

// CompiledConstraint is a planned integrity constraint. LHS and RHS share
// one slot space so an LHS binding seeds the RHS satisfiability query.
type CompiledConstraint struct {
	src      *datalog.Constraint
	lhsSteps []step // static order, for full-database verification
	rhsSteps []step
	// lhsDeltaPlans holds one delta-first LHS plan per LHS atom (see
	// CompiledRule.deltaPlans); every plan binds the same variables, so
	// they all seed the one RHS plan.
	lhsDeltaPlans [][]step

	slotSpace
}

// String returns the source form of the constraint.
func (c *CompiledConstraint) String() string { return c.src.String() }

// compiler carries per-compilation state: fresh variable numbering and the
// extra literals produced by term normalization.
type compiler struct {
	w      *Workspace
	freshN int
	extra  []datalog.Literal
	// apps maps the functional applications normalized so far, by their text
	// over normalized keys, to the variable each was given. A rule or
	// constraint that writes self[] three times means one value — the
	// functional dependency says so — and gets one variable, one atom, one
	// probe per binding and one delta plan for it.
	apps map[string]datalog.Var
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

// litToStep converts a normalized literal to an unplanned step.
func (c *compiler) litToStep(l datalog.Literal) (step, error) {
	switch l.Kind {
	case datalog.LitAtom:
		name := l.Atom.ConcreteName()
		if u, ok := c.w.udfs.Lookup(l.Atom.Pred); ok {
			return step{kind: stepUDF, pred: l.Atom.Pred, param: l.Atom.Param, atom: l.Atom, udf: u}, nil
		}
		if _, err := c.w.cat.AutoDeclare(l.Atom); err != nil {
			return step{}, err
		}
		c.w.ensureRelation(name)
		return step{kind: stepMatch, pred: name, atom: l.Atom}, nil
	case datalog.LitNeg:
		if _, ok := c.w.udfs.Lookup(l.Atom.Pred); ok {
			return step{}, fmt.Errorf("cannot negate UDF atom %s", l.Atom)
		}
		name := l.Atom.ConcreteName()
		if _, err := c.w.cat.AutoDeclare(l.Atom); err != nil {
			return step{}, err
		}
		c.w.ensureRelation(name)
		return step{kind: stepNeg, pred: name, atom: l.Atom}, nil
	default:
		return step{kind: stepCmp, op: l.Op, l: l.L, r: l.R}, nil
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

// planSteps orders steps greedily so that every step runs with sufficient
// bindings: binding/filter comparisons and ready negations first, then
// matches sharing bound variables (functional lookups preferred), then
// ready UDFs, then cartesian matches as a last resort. With lead ≥ 0,
// unplanned[lead] is the plan's first step whatever its bindings — the delta
// atom of a delta-first plan, whose variables bound already holds — and the
// rest are ordered from there. unplanned is not modified.
func planSteps(unplanned []step, bound map[string]bool, lead int) ([]step, error) {
	out := make([]step, 0, len(unplanned))
	taken := make([]bool, len(unplanned))
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
	// boundColsOf records the step's probe signature: the argument positions
	// that hold a constant or an already-bound variable at this point of the
	// plan. At runtime exactly these positions carry values, so an index
	// over them can be registered now and probed then.
	boundColsOf := func(a *datalog.Atom) []int {
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
	// next returns the first step not yet planned after index i, of kind k.
	next := func(i int, k stepKind) int {
		for i++; i < len(unplanned); i++ {
			if !taken[i] && unplanned[i].kind == k {
				return i
			}
		}
		return -1
	}

	for len(out) < len(unplanned) {
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
			if unplanned[i].udf.CanEval(mask) {
				picked = i
			}
		}
		// 6. any match at all (cartesian start).
		if picked < 0 {
			picked = next(-1, stepMatch)
		}
		if picked < 0 {
			return nil, fmt.Errorf("cannot order body: %d literal(s) never become evaluable (first: %s)",
				len(unplanned)-len(out), describeStep(unplanned[slices.Index(taken, false)]))
		}
		s := unplanned[picked]
		taken[picked] = true
		switch s.kind {
		case stepMatch:
			s.boundCols = boundColsOf(s.atom)
			bindAtomVars(s.atom)
		case stepNeg:
			s.boundCols = boundColsOf(s.atom)
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
// tuples with nothing bound before it — its constants and repeated variables
// are checked by unification — and planSteps orders the remaining literals
// from the variables it binds, so every later step is probed, not scanned.
func planDeltaPlans(unplanned []step) ([][]step, error) {
	var plans [][]step
	for i := range unplanned {
		if unplanned[i].kind != stepMatch {
			continue
		}
		bound := map[string]bool{}
		datalog.AtomVars(unplanned[i].atom, bound)
		plan, err := planSteps(unplanned, bound, i)
		if err != nil {
			return nil, err
		}
		plans = append(plans, plan)
	}
	return plans, nil
}

// finalizeSteps compiles each planned step's terms against the slot
// allocator and selects its access path, every one a probe of one of the
// relation's indexes: the functional index when every key column is bound,
// the primary when every column is, otherwise a secondary index over the
// step's bound-column signature, registered with the relation now so every
// later probe is O(1). A step with nothing bound is a leading scan.
func (w *Workspace) finalizeSteps(steps []step, sa *slotAlloc) {
	for i := range steps {
		s := &steps[i]
		switch s.kind {
		case stepMatch, stepNeg:
			s.args = sa.compileAtom(s.atom)
			s.rel = w.ensureRelation(s.pred)
			arity := len(s.atom.Args)
			// boundCols is ascending and only ever holds Const / bound-Var
			// positions, so its ka-th entry being ka-1 means exactly the key
			// columns 0..ka-1 lead it and will carry values at runtime.
			ka := s.rel.schema.KeyArity
			switch nb := len(s.boundCols); {
			case s.kind == stepMatch && s.rel.fn != nil && ka <= arity && nb >= ka && (ka == 0 || s.boundCols[ka-1] == ka-1):
				s.probeIdx, s.probeCols = s.rel.fn, s.rel.fn.cols
			case nb > 0 && nb == arity:
				s.probeIdx, s.probeCols = &s.rel.primary, s.boundCols
			case nb > 0:
				s.probeIdx, s.probeCols = s.rel.ensureIndex(s.boundCols), s.boundCols
			}
		case stepCmp:
			cl := sa.compileTerm(s.l)
			cr := sa.compileTerm(s.r)
			s.cl, s.cr = &cl, &cr
		case stepUDF:
			s.args = sa.compileAtom(s.atom)
			s.udfArgs = make([]datalog.Value, len(s.args))
			s.udfMask = make([]bool, len(s.args))
		case stepKindCheck:
			cc := sa.compileTerm(s.checked)
			s.cchecked = &cc
		}
	}
}

// finalizeDeltaPlans compiles delta-first plans against the slot numbering
// their static plan already fixed. The leading step only unifies delta
// tuples, so it gets compiled arguments, the relation whose row lists it
// ranges over, and no access path.
func (w *Workspace) finalizeDeltaPlans(plans [][]step, sa *slotAlloc) {
	for _, plan := range plans {
		plan[0].args = sa.compileAtom(plan[0].atom)
		plan[0].rel = w.ensureRelation(plan[0].pred)
		w.finalizeSteps(plan[1:], sa)
	}
}

func describeStep(s step) string {
	switch s.kind {
	case stepCmp:
		return fmt.Sprintf("%s %s %s", s.l, s.op, s.r)
	case stepKindCheck:
		return fmt.Sprintf("%s(%s)", s.typeName, s.checked)
	default:
		return s.atom.String()
	}
}

// planRule normalizes a rule and orders its body into the static plan and the
// per-delta plans. The returned rule carries the planner's bound-variable set
// (cr.bound) and has no slot numbering yet — finalizeRule fixes the execution
// form; PlanProgram stops here.
func (w *Workspace) planRule(r *datalog.Rule) (*CompiledRule, error) {
	c := &compiler{w: w}
	body, err := c.normalizeLiterals(r.Body)
	if err != nil {
		return nil, fmt.Errorf("rule %s: %w", r, err)
	}
	var heads []*datalog.Atom
	for _, h := range r.Heads {
		c.extra = c.extra[:0]
		nh, err := c.normalizeAtom(h, true)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", r, err)
		}
		body = append(body, c.extra...)
		if _, ok := w.udfs.Lookup(nh.Pred); ok {
			return nil, fmt.Errorf("rule %s: cannot derive into UDF %s", r, nh.Pred)
		}
		if _, err := w.cat.AutoDeclare(nh); err != nil {
			return nil, fmt.Errorf("rule %s: %w", r, err)
		}
		w.ensureRelation(nh.ConcreteName())
		heads = append(heads, nh)
	}
	var unplanned []step
	for _, l := range body {
		s, err := c.litToStep(l)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", r, err)
		}
		unplanned = append(unplanned, s)
	}
	bound := map[string]bool{}
	steps, err := planSteps(unplanned, bound, -1)
	if err != nil {
		return nil, fmt.Errorf("rule %s: %w", r, err)
	}
	deltaPlans, err := planDeltaPlans(unplanned)
	if err != nil {
		return nil, fmt.Errorf("rule %s: %w", r, err)
	}
	return &CompiledRule{src: r, heads: heads, steps: steps, deltaPlans: deltaPlans,
		agg: r.Agg, aggOverSlot: -1, bound: bound}, nil
}

// finalizeRule compiles a planned rule's execution form: slot allocation,
// access-path selection and index registration, head compilation, and
// head-existential analysis.
func (w *Workspace) finalizeRule(cr *CompiledRule) error {
	r, heads, steps, bound := cr.src, cr.heads, cr.steps, cr.bound
	sa := newSlotAlloc(&w.syms)
	w.finalizeSteps(steps, sa)
	w.finalizeDeltaPlans(cr.deltaPlans, sa)

	for _, h := range heads {
		cr.cheads = append(cr.cheads, sa.compileAtom(h))
		cr.headRels = append(cr.headRels, w.ensureRelation(h.ConcreteName()))
	}
	for v := range bound {
		cr.bodyVars = append(cr.bodyVars, v)
	}
	sort.Strings(cr.bodyVars)
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
			if s := w.cat.Schema(h.ConcreteName()); s != nil && s.IsEntity {
				entType = h.ConcreteName()
				break
			}
		}
		if entType == "" {
			return fmt.Errorf("rule %s: head variable %s is unbound and has no entity type", r, v)
		}
		cr.exVars = append(cr.exVars, headEx{name: v, entType: entType, entSym: w.syms.intern(entType),
			rel: w.ensureRelation(entType), slot: sa.slot(v)})
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
		cr.aggKeys = w.NewTupleSet(heads[0].KeyArity)
	}
	cr.slotNames = sa.names
	cr.bound = nil
	return nil
}

// compileConstraint plans an integrity constraint. RHS atoms over builtin
// type predicates become kind checks; everything else is evaluated as a
// satisfiability query seeded with the LHS binding.
func (w *Workspace) compileConstraint(con *datalog.Constraint) (*CompiledConstraint, error) {
	c := &compiler{w: w}
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
	bound := map[string]bool{}
	lhsSteps, err := planSteps(lhsUnplanned, bound, -1)
	if err != nil {
		return nil, fmt.Errorf("constraint %s: %w", con, err)
	}
	lhsDeltaPlans, err := planDeltaPlans(lhsUnplanned)
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
			if s := w.cat.Schema(l.Atom.Pred); isKind || (s != nil && s.IsEntity) {
				rhsUnplanned = append(rhsUnplanned, step{
					kind: stepKindCheck, typeName: l.Atom.Pred, checked: l.Atom.Args[0],
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
	rhsSteps, err := planSteps(rhsUnplanned, bound, -1)
	if err != nil {
		return nil, fmt.Errorf("constraint %s: %w", con, err)
	}
	sa := newSlotAlloc(&w.syms)
	w.finalizeSteps(lhsSteps, sa)
	w.finalizeDeltaPlans(lhsDeltaPlans, sa)
	w.finalizeSteps(rhsSteps, sa)
	return &CompiledConstraint{src: con, lhsSteps: lhsSteps, rhsSteps: rhsSteps, lhsDeltaPlans: lhsDeltaPlans,
		slotSpace: slotSpace{slotNames: sa.names}}, nil
}
