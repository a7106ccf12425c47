package engine

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"secureblox/internal/datalog"
	"secureblox/internal/metrics"
)

// Fact is one tuple of a named predicate, the unit of assertion and
// retraction.
type Fact struct {
	Pred  string
	Tuple datalog.Tuple
}

// String renders the fact as source text.
func (f Fact) String() string { return f.Pred + f.Tuple.String() }

// ConstraintViolation is returned when a transaction derives data violating
// an installed integrity constraint; the paper's semantics roll back the
// entire transaction (§5.2).
type ConstraintViolation struct {
	Constraint string
	Detail     string
}

// Error implements error.
func (v *ConstraintViolation) Error() string {
	if v.Detail == "" {
		return "constraint violation: " + v.Constraint
	}
	return "constraint violation: " + v.Constraint + " (" + v.Detail + ")"
}

// undoRec is one undo-log entry, a change to a row the transaction found in
// place: its cells deleted (and whether it was an EDB fact), or the derived row
// promoted to an EDB fact by a duplicate base insert. Rows the transaction
// inserted itself need none — their relation lists them (Relation.ins), and
// rollback removes every one of them whatever else happened to it.
type undoRec struct {
	rel      *Relation
	at       int  // the row's cells are txn.cells[at : at+rel.arity]
	promoted bool // else deleted
	wasBase  bool
}

// txn tracks one transaction's effects for constraint checking and rollback.
type txn struct {
	undo []undoRec
	// cells holds the undo log's rows: a deleted row's id is free at once, and
	// the transaction's next insert may overwrite it.
	cells       []cell
	skolemKeys  []string
	counterSnap map[string]int64
	mark        symMark // where the intern table stood when the transaction began
}

// begin starts a transaction. A workspace runs one at a time, so the undo log,
// the snapshot tables and the relations' row lists are the previous
// transaction's, emptied — which is where a committed TxnResult stops being
// readable.
func (w *Workspace) begin() *txn {
	t := &w.txn
	t.undo, t.cells, t.skolemKeys = t.undo[:0], t.cells[:0], t.skolemKeys[:0]
	clear(t.counterSnap)
	w.dropLists()
	t.mark = w.syms.mark()
	return t
}

// logRow appends an undo record for row id of rel, copying its cells.
func (t *txn) logRow(rel *Relation, id uint32, promoted, wasBase bool) {
	t.undo = append(t.undo, undoRec{rel: rel, at: len(t.cells), promoted: promoted, wasBase: wasBase})
	t.cells = append(t.cells, rel.row(id)...)
}

// dropLists empties the row lists of the relations the last transaction
// inserted into: its rows stop being new, and the ids of those it deleted
// again become reusable.
func (w *Workspace) dropLists() {
	for _, rel := range w.dirty {
		for i := len(rel.ins) - 1; i >= 0; i-- { // newest first, so ids come back in the order they went
			rel.clear(rel.ins[i], rowNew)
		}
		rel.ins, rel.lo, rel.hi = rel.ins[:0], 0, 0
	}
	w.dirty, w.cur, w.nxt = w.dirty[:0], w.cur[:0], w.nxt[:0]
}

// nextRound makes what the last round derived — everything listed since the
// previous call — the delta of the next, and reports whether there is any.
// Between calls every relation outside cur has lo == hi <= len(ins), and is in
// nxt exactly when hi < len(ins).
func (w *Workspace) nextRound() bool {
	for _, rel := range w.cur {
		rel.lo = rel.hi
	}
	w.cur, w.nxt = w.nxt, w.cur[:0]
	for _, rel := range w.cur {
		rel.lo, rel.hi = rel.hi, len(rel.ins)
	}
	return len(w.cur) > 0
}

// aggGroup accumulates one group of an aggregate recompute.
type aggGroup struct{ acc, n int64 }

// factSet is a set of rows: per relation, a tuple set of its arity.
type factSet map[*Relation]*Relation

// add inserts row of rel, reporting whether it was new.
func (s factSet) add(rel *Relation, row []cell) bool {
	m := s[rel]
	if m == nil {
		m = newRelation(&Schema{Name: rel.schema.Name, Arity: len(row), KeyArity: -1}, rel.syms)
		s[rel] = m
	}
	return m.insert(row, false) == InsertedNew
}

func (s factSet) has(rel *Relation, row []cell) bool {
	m := s[rel]
	return m != nil && m.rowOf(row) >= 0
}

// Workspace is a LogicBlox-style database instance: predicate definitions,
// installed rules and constraints, and the data they maintain.
type Workspace struct {
	cat         *Catalog
	rels        map[string]*Relation
	rules       []*CompiledRule
	aggRules    []*CompiledRule
	constraints []*CompiledConstraint
	udfs        *UDFRegistry
	entCounters map[string]int64
	skolems     map[string]cell
	ruleN       int

	rulesByHead map[string][]*CompiledRule

	// roundRules/roundAggs are fixpoint's per-round rule lists, kept across
	// rounds and transactions so a round allocates neither.
	roundRules, roundAggs []*CompiledRule
	// syms interns the text of every value the workspace stores.
	syms symtab
	// txn is the one transaction record (see begin), result what a committed
	// one hands out.
	txn    txn
	result TxnResult
	// The relations the transaction has inserted into (dirty), those with a
	// delta in the fixpoint round being evaluated (cur) and those the round has
	// derived into (nxt); the rows themselves are on each relation's ins.
	dirty, cur, nxt []*Relation
	// Scratch, reused by every transaction: recomputeAgg's accumulators (by
	// row id of the rule's aggKeys), facts' cells, string +, Skolem keys.
	aggCells []aggGroup
	factBuf  []cell
	concat   []byte
	skolem   []byte

	// Unstratified holds diagnostics for rules whose negation or
	// aggregation is cyclic through their own head (evaluated against
	// current state, as in pipelined declarative networking engines).
	Unstratified []string
	// StrictStratification makes Install fail instead of recording
	// Unstratified diagnostics.
	StrictStratification bool
	// EntityBase offsets generated entity ids so entities created on
	// different nodes never collide when shipped over the network (set it
	// to a distinct large value per node).
	EntityBase int64
	// InstallCheck, when non-nil, runs over each program before Install
	// mutates anything; a returned error rejects the batch. The static
	// analyzer (internal/analysis) hooks in here so error-class findings
	// block installation without the engine importing the analyzer.
	InstallCheck func(*datalog.Program) error

	stats     metrics.EngineStats // cumulative evaluator counters
	published metrics.EngineStats // portion already pushed to metrics globals
}

// Stats returns the workspace's cumulative evaluator counters.
func (w *Workspace) Stats() metrics.EngineStats { return w.stats }

// publishStats pushes the counter growth since the last publish into the
// process-wide metrics totals (one lock per transaction, not per probe).
func (w *Workspace) publishStats() {
	d := w.stats.Sub(w.published)
	if d != (metrics.EngineStats{}) {
		metrics.EngineAccumulate(d)
		w.published = w.stats
	}
}

// NewWorkspace returns an empty workspace using the given UDF registry
// (nil for none).
func NewWorkspace(udfs *UDFRegistry) *Workspace {
	if udfs == nil {
		udfs = NewUDFRegistry()
	}
	w := &Workspace{
		cat:         NewCatalog(),
		rels:        make(map[string]*Relation),
		udfs:        udfs,
		entCounters: make(map[string]int64),
		skolems:     make(map[string]cell),
		rulesByHead: make(map[string][]*CompiledRule),
	}
	w.result.w = w
	w.txn.counterSnap = make(map[string]int64)
	for name := range w.cat.schemas {
		w.ensureRelation(name)
	}
	return w
}

// Catalog exposes the workspace's predicate catalog.
func (w *Workspace) Catalog() *Catalog { return w.cat }

// UDFs exposes the workspace's UDF registry.
func (w *Workspace) UDFs() *UDFRegistry { return w.udfs }

func (w *Workspace) ensureRelation(name string) *Relation {
	if r, ok := w.rels[name]; ok {
		return r
	}
	s := w.cat.Schema(name)
	if s == nil {
		s = &Schema{Name: name, Arity: -1, KeyArity: -1, AutoDecl: true}
		w.cat.schemas[name] = s
	}
	r := newRelation(s, &w.syms)
	w.resolveKinds(r)
	w.rels[name] = r
	return r
}

// resolveKinds compiles rel's declared argument types into the checks an
// insert runs. Install repeats it for every relation once its declarations are
// in, because a type name starts to be checked when it is declared an entity.
func (w *Workspace) resolveKinds(rel *Relation) {
	rel.kinds = rel.kinds[:0]
	for _, at := range rel.schema.ArgTypes {
		rel.kinds = append(rel.kinds, w.cat.argKind(at))
	}
}

// Install compiles a program (declarations, rules, constraints, facts) into
// the workspace, runs initial evaluation, and checks all constraints. On any
// error the workspace is restored to its prior state.
func (w *Workspace) Install(prog *datalog.Program) (err error) {
	if w.InstallCheck != nil {
		if err := w.InstallCheck(prog); err != nil {
			return err
		}
	}
	defer w.publishStats()
	t := w.begin()
	nRules, nAgg, nCons := len(w.rules), len(w.aggRules), len(w.constraints)
	defer func() {
		if err != nil {
			w.rollback(t)
			w.rules = w.rules[:nRules]
			w.aggRules = w.aggRules[:nAgg]
			w.constraints = w.constraints[:nCons]
			w.rebuildIndexes()
		}
	}()

	// Declarations first so later compilation sees schemas.
	for _, con := range prog.Constraints {
		if IsDeclaration(con) {
			if _, err := w.cat.DeclareFromConstraint(con); err != nil {
				return err
			}
			w.ensureRelation(con.Lhs[0].Atom.ConcreteName())
		}
	}
	for _, rel := range w.rels {
		w.resolveKinds(rel)
	}
	var newRules []*CompiledRule
	for _, r := range prog.Rules {
		cr, err := w.planRule(r)
		if err != nil {
			return err
		}
		if err := w.checkRuleTypes(cr); err != nil {
			return err
		}
		if err := w.finalizeRule(cr); err != nil {
			return err
		}
		newRules = append(newRules, cr)
		cr.id = w.ruleN
		w.ruleN++
		if cr.agg != nil {
			w.aggRules = append(w.aggRules, cr)
		} else {
			w.rules = append(w.rules, cr)
		}
	}
	for _, con := range prog.Constraints {
		cc, err := w.compileConstraint(con)
		if err != nil {
			return err
		}
		w.constraints = append(w.constraints, cc)
	}
	w.rebuildIndexes()
	if err := w.checkStratification(); err != nil {
		return err
	}

	// Source facts.
	for _, f := range prog.Facts {
		fact, err := w.groundFact(f)
		if err != nil {
			return err
		}
		if err := w.insertBase(t, w.rels[fact.Pred], fact.Tuple); err != nil {
			return err
		}
	}

	// Initial full evaluation of the new rules, then fixpoint: what the facts
	// and these evaluations inserted is its first delta.
	for _, cr := range newRules {
		var err error
		if cr.agg != nil {
			err = w.recomputeAgg(t, cr)
		} else {
			err = w.evalRuleInto(t, cr)
		}
		if err != nil {
			return err
		}
	}
	if err := w.fixpoint(t); err != nil {
		return err
	}
	return w.checkAllConstraints()
}

func (w *Workspace) groundFact(a *datalog.Atom) (Fact, error) {
	if _, err := w.cat.AutoDeclare(a); err != nil {
		return Fact{}, err
	}
	name := a.ConcreteName()
	w.ensureRelation(name)
	tup := make(datalog.Tuple, len(a.Args))
	for i, t := range a.Args {
		c, ok := t.(datalog.Const)
		if !ok {
			return Fact{}, fmt.Errorf("fact %s is not ground", a)
		}
		tup[i] = c.Val
	}
	return Fact{Pred: name, Tuple: tup}, nil
}

// rebuildIndexes rebuilds the per-relation and per-head rule lists. w.rules and
// w.aggRules are in ascending id order, so every list is too — fixpoint's
// per-round merge relies on it.
func (w *Workspace) rebuildIndexes() {
	for _, rel := range w.rels {
		rel.rules, rel.aggs = nil, nil
	}
	w.rulesByHead = make(map[string][]*CompiledRule)
	// A rule with two delta plans led by one relation is listed there once:
	// rules are listed one after another, so a repeat is the list's last entry.
	listOnce := func(list []*CompiledRule, r *CompiledRule) []*CompiledRule {
		if len(list) > 0 && list[len(list)-1] == r {
			return list
		}
		return append(list, r)
	}
	for _, r := range w.rules {
		for _, plan := range r.deltaPlans {
			plan[0].rel.rules = listOnce(plan[0].rel.rules, r)
		}
		for _, h := range r.heads {
			w.rulesByHead[h.ConcreteName()] = append(w.rulesByHead[h.ConcreteName()], r)
		}
	}
	for _, r := range w.aggRules {
		for _, plan := range r.deltaPlans {
			plan[0].rel.aggs = listOnce(plan[0].rel.aggs, r)
		}
	}
}

// checkStratification detects negation or aggregation through a recursive
// cycle. The distributed programs in the paper are semantically stratified
// (the cycle is broken by the network), so by default this only records
// diagnostics; StrictStratification turns them into errors.
func (w *Workspace) checkStratification() error {
	// Build positive dependency closure: head depends on body preds.
	dep := make(map[string]map[string]bool)
	addDep := func(h, b string) {
		m := dep[h]
		if m == nil {
			m = make(map[string]bool)
			dep[h] = m
		}
		m[b] = true
	}
	all := append(append([]*CompiledRule(nil), w.rules...), w.aggRules...)
	for _, r := range all {
		for _, h := range r.heads {
			for _, s := range r.steps {
				if s.kind == stepMatch || s.kind == stepNeg {
					addDep(h.ConcreteName(), s.pred)
				}
			}
		}
	}
	// Transitive closure (predicate count is small).
	changed := true
	for changed {
		changed = false
		for h, bs := range dep {
			for b := range bs {
				for b2 := range dep[b] {
					if !dep[h][b2] {
						addDep(h, b2)
						changed = true
					}
				}
			}
		}
	}
	w.Unstratified = nil
	for _, r := range all {
		for _, s := range r.steps {
			if s.kind != stepNeg && !(s.kind == stepMatch && r.agg != nil) {
				continue
			}
			for _, h := range r.heads {
				hn := h.ConcreteName()
				if s.pred == hn || dep[s.pred][hn] {
					kind := "negation"
					if r.agg != nil {
						kind = "aggregation"
					}
					diag := fmt.Sprintf("%s over %s is recursive through %s in rule: %s", kind, s.pred, hn, r.src)
					w.Unstratified = append(w.Unstratified, diag)
					if w.StrictStratification {
						return fmt.Errorf("unstratified program: %s", diag)
					}
				}
			}
		}
	}
	return nil
}

// checkTuple enforces rel's arity and kind-level type declarations on a row
// about to be stored.
func checkTuple(rel *Relation, vals []cell) error {
	s := rel.schema
	if s.Arity >= 0 && len(vals) != s.Arity {
		return fmt.Errorf("predicate %s: arity mismatch: got %d, want %d", s.Name, len(vals), s.Arity)
	}
	if s.Arity < 0 {
		s.Arity = len(vals)
		s.ArgTypes = make([]string, len(vals))
	}
	for i, k := range rel.kinds {
		if v := rel.syms.value(vals[i]); !k.admits(v) {
			return &ConstraintViolation{
				Constraint: fmt.Sprintf("%s argument %d must be %s", s.Name, i+1, s.ArgTypes[i]),
				Detail:     fmt.Sprintf("got %s", v),
			}
		}
	}
	return nil
}

// store copies vals — absent from rel, hashing to h, checked — into a row and
// lists it as the transaction's, for the next fixpoint round, the constraint
// check, the result and rollback alike.
func (w *Workspace) store(rel *Relation, vals []cell, h uint64, flags uint8) error {
	id, ok := rel.add(vals, h, flags|rowLive|rowNew)
	if !ok {
		old := rel.row(uint32(rel.lookupFn(vals[:rel.schema.KeyArity])))
		return &ConstraintViolation{
			Constraint: fmt.Sprintf("functional dependency on %s", rel.schema.Name),
			Detail:     fmt.Sprintf("key maps to both %s and %s", w.syms.tuple(old), w.syms.tuple(vals)),
		}
	}
	if len(rel.ins) == 0 {
		w.dirty = append(w.dirty, rel)
	}
	if len(rel.ins) == rel.hi {
		w.nxt = append(w.nxt, rel)
	}
	rel.ins = append(rel.ins, id)
	return nil
}

// insertBase inserts one EDB fact, interning its text. A fact the relation
// already holds as a derived tuple is promoted in place, and the promotion
// logged unless the row is the transaction's own.
func (w *Workspace) insertBase(t *txn, rel *Relation, tuple datalog.Tuple) error {
	vals := w.syms.cells(w.factBuf[:0], tuple)
	w.factBuf = vals
	h := hashCells(vals)
	if id := rel.find(&rel.primary, h, vals); id != 0 {
		if f := &rel.flags[id-1]; *f&rowBase == 0 {
			*f |= rowBase
			if *f&rowNew == 0 {
				t.logRow(rel, id-1, true, false)
			}
		}
		return nil
	}
	if err := checkTuple(rel, vals); err != nil {
		return err
	}
	return w.store(rel, vals, h, rowBase)
}

// insertDerived adds one derived row of rel unless rel already holds it.
// vals is the caller's scratch, and stays on its stack: one hash serves the
// existence check and the insert, so rederiving an existing row — the
// overwhelmingly common case inside a fixpoint — has nothing to insert, log,
// propagate or allocate, and a new one costs its cells in the relation's page
// and a four-byte entry on the relation's list.
func (w *Workspace) insertDerived(rel *Relation, vals []cell) error {
	h := hashCells(vals)
	if rel.find(&rel.primary, h, vals) != 0 {
		return nil
	}
	if err := checkTuple(rel, vals); err != nil {
		return err
	}
	return w.store(rel, vals, h, 0)
}

// deleteRow deletes row id, logging it unless the transaction inserted it.
func (w *Workspace) deleteRow(t *txn, rel *Relation, id uint32) {
	if f := rel.flags[id]; f&rowNew == 0 {
		t.logRow(rel, id, false, f&rowBase != 0)
	}
	rel.remove(id)
}

// rollback undoes the transaction: every row it inserted goes, whether or not
// it deleted the row again itself (an aggregate value replaced
// 5→4→3 loses 3 and the dead 4); then the log is unwound, newest first, over a
// store that holds none of the transaction's own tuples, so the 5 finds its
// key free.
func (w *Workspace) rollback(t *txn) {
	for _, rel := range w.dirty {
		for _, id := range rel.ins {
			if rel.flags[id]&rowLive != 0 {
				rel.remove(id)
			}
		}
	}
	w.dropLists()
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := &t.undo[i]
		row := t.cells[u.at : u.at+u.rel.arity]
		if u.promoted {
			u.rel.flags[u.rel.rowOf(row)] &^= rowBase
		} else {
			u.rel.insert(row, u.wasBase)
		}
	}
	for _, k := range t.skolemKeys {
		delete(w.skolems, k)
	}
	for typ, n := range t.counterSnap {
		w.entCounters[typ] = n
	}
	w.syms.restore(t.mark) // no cell names what the transaction interned any more
}

// evalRuleInto fully evaluates one non-aggregate rule in its static order
// and inserts derivations.
func (w *Workspace) evalRuleInto(t *txn, r *CompiledRule) error {
	return w.runSteps(r.steps, 0, r.seqFrame(), func(f *frame) error {
		return w.derive(t, r, f)
	})
}

// evalRuleDeltas runs the delta-first plan of every body atom of r whose
// relation has a delta this round, inserting derivations.
func (w *Workspace) evalRuleDeltas(t *txn, r *CompiledRule) error {
	emit := func(f *frame) error { return w.derive(t, r, f) }
	for _, plan := range r.deltaPlans {
		rel := plan[0].rel
		if rel.lo == rel.hi {
			continue
		}
		if err := w.runDelta(plan, rel, rel.ins[rel.lo:rel.hi], r.seqFrame(), emit); err != nil {
			return err
		}
	}
	return nil
}

// skolemKey returns, in the workspace's scratch, the Skolem key of head
// existential name under f's binding: the rule id, the cells of the
// (name-sorted) body variables, the name.
func (w *Workspace) skolemKey(r *CompiledRule, f *frame, name string) []byte {
	k := binary.AppendUvarint(w.skolem[:0], uint64(r.id))
	for _, slot := range r.bodySlots {
		if c, ok := f.get(slot); ok {
			k = binary.LittleEndian.AppendUint32(append(k, byte(c.kind)), c.sym)
			k = binary.LittleEndian.AppendUint64(k, c.bits)
		}
	}
	w.skolem = append(k, name...)
	return w.skolem
}

// derive materializes all head atoms of a rule for one body binding,
// creating Skolemized entities for head-existential variables. Head tuples
// are built in a stack buffer and handed to insertDerived.
func (w *Workspace) derive(t *txn, r *CompiledRule, f *frame) error {
	mark := f.mark()
	defer f.undo(mark)

	for _, ex := range r.exVars {
		key := w.skolemKey(r, f, ex.name)
		ent, ok := w.skolems[string(key)]
		if !ok {
			if _, snap := t.counterSnap[ex.entType]; !snap {
				t.counterSnap[ex.entType] = w.entCounters[ex.entType]
			}
			if w.entCounters[ex.entType] == 0 {
				w.entCounters[ex.entType] = w.EntityBase
			}
			w.entCounters[ex.entType]++
			ent = cell{kind: datalog.KindEntity, sym: ex.entSym, bits: uint64(w.entCounters[ex.entType])}
			k := string(key)
			w.skolems[k] = ent
			t.skolemKeys = append(t.skolemKeys, k)
		}
		f.bind(ex.slot, ent)
		if err := w.insertDerived(ex.rel, []cell{ent}); err != nil {
			return err
		}
	}

	for hi, h := range r.heads {
		var buf [8]cell
		vals := buf[:0]
		cargs := r.cheads[hi]
		for i := range cargs {
			v, err := w.eval(&cargs[i], f)
			if err != nil {
				return fmt.Errorf("rule %s: head %s: %w", r.src, h, err)
			}
			vals = append(vals, v)
		}
		if err := w.insertDerived(r.headRels[hi], vals); err != nil {
			return err
		}
	}
	return nil
}

// recomputeAgg fully re-evaluates an aggregation rule and replaces changed
// group values (replacement semantics: the old tuple is removed without
// retraction of its prior consequences — see DESIGN.md). It leaves the keys of
// every group the body still supports in r.aggKeys.
func (w *Workspace) recomputeAgg(t *txn, r *CompiledRule) error {
	keyN := r.heads[0].KeyArity
	groups := r.aggKeys
	groups.reset()
	w.aggCells = w.aggCells[:0]

	err := w.runSteps(r.steps, 0, r.seqFrame(), func(f *frame) error {
		var buf [8]cell
		keys := buf[:0]
		for i := 0; i < keyN; i++ {
			v, err := w.eval(&r.cheads[0][i], f)
			if err != nil {
				return err
			}
			keys = append(keys, v)
		}
		var over int64 // 0 for a bare count
		if r.agg.Over != "" {
			v, ok := f.get(r.aggOverSlot)
			if !ok {
				return fmt.Errorf("aggregate variable %s unbound", r.agg.Over)
			}
			if r.agg.Func != "count" && v.kind != datalog.KindInt {
				return fmt.Errorf("aggregate %s over non-integer %s", r.agg.Func, w.syms.value(v))
			}
			over = int64(v.bits)
		}
		id := groups.rowOf(keys)
		if id < 0 {
			// groups only grows between resets, so the new row's id is the
			// next index of aggCells.
			groups.insert(keys, false)
			w.aggCells = append(w.aggCells, aggGroup{acc: over, n: 1})
			return nil
		}
		g := &w.aggCells[id]
		g.n++
		switch r.agg.Func {
		case "min":
			g.acc = min(g.acc, over)
		case "max":
			g.acc = max(g.acc, over)
		case "sum":
			g.acc += over
		}
		return nil
	})
	if err != nil {
		return err
	}

	rel := r.headRels[0]
	for id, g := range w.aggCells {
		keys := groups.row(uint32(id))
		result := cell{kind: datalog.KindInt, bits: uint64(g.acc)}
		if r.agg.Func == "count" {
			result.bits = uint64(g.n)
		}
		if old := rel.lookupFn(keys); old >= 0 {
			if rel.row(uint32(old))[keyN] == result {
				continue
			}
			w.deleteRow(t, rel, uint32(old))
		}
		var buf [8]cell
		if err := w.insertDerived(rel, append(append(buf[:0], keys...), result)); err != nil {
			return err
		}
	}
	return nil
}

// fixpoint runs semi-naïve evaluation to quiescence, starting from what the
// transaction has inserted since the last round.
func (w *Workspace) fixpoint(t *txn) error {
	for w.nextRound() {
		w.stats.FixpointRounds++
		// The rules with a delta plan led by any relation of this round, each
		// once, in ascending id order. The per-relation lists are already in id
		// order (rebuildIndexes), so one relation — the common case — is a copy.
		w.roundRules, w.roundAggs = w.roundRules[:0], w.roundAggs[:0]
		for _, rel := range w.cur {
			w.roundRules = append(w.roundRules, rel.rules...)
			w.roundAggs = append(w.roundAggs, rel.aggs...)
		}
		if len(w.cur) > 1 {
			w.roundRules, w.roundAggs = byID(w.roundRules), byID(w.roundAggs)
		}
		for _, r := range w.roundRules {
			if err := w.evalRuleDeltas(t, r); err != nil {
				return err
			}
		}
		for _, r := range w.roundAggs {
			if err := w.recomputeAgg(t, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// byID sorts a concatenation of rule lists by id and drops the repeats.
func byID(rules []*CompiledRule) []*CompiledRule {
	slices.SortFunc(rules, func(a, b *CompiledRule) int { return a.id - b.id })
	return slices.Compact(rules)
}

// checkTxnConstraints verifies every installed constraint against the
// tuples inserted by the transaction (incremental LHS restriction).
func (w *Workspace) checkTxnConstraints() error {
	for _, c := range w.constraints {
		for _, plan := range c.lhsDeltaPlans {
			rel := plan[0].rel
			if len(rel.ins) == 0 {
				continue
			}
			if err := w.runDelta(plan, rel, rel.ins, c.seqFrame(), func(f *frame) error { return w.checkBinding(c, f) }); err != nil {
				return err
			}
		}
	}
	return nil
}

var errSatisfied = fmt.Errorf("satisfied")

// checkBinding reports a violation unless the RHS is satisfiable under one
// complete LHS binding.
func (w *Workspace) checkBinding(c *CompiledConstraint, f *frame) error {
	if len(c.rhsSteps) == 0 {
		return nil
	}
	err := w.runSteps(c.rhsSteps, 0, f, func(*frame) error { return errSatisfied })
	if err == errSatisfied {
		return nil
	}
	if err == nil {
		err = &ConstraintViolation{Constraint: c.src.String(), Detail: w.bindingDetail(f)}
	}
	return err
}

func (w *Workspace) bindingDetail(f *frame) string {
	type nv struct {
		name string
		val  datalog.Value
	}
	var bound []nv
	for slot, name := range f.names {
		if strings.HasPrefix(name, "$") {
			continue
		}
		if v, ok := f.get(slot); ok {
			bound = append(bound, nv{name, w.syms.value(v)})
		}
	}
	sort.Slice(bound, func(i, j int) bool { return bound[i].name < bound[j].name })
	parts := make([]string, 0, len(bound))
	for _, b := range bound {
		parts = append(parts, b.name+"="+b.val.String())
	}
	return strings.Join(parts, ", ")
}

// checkAllConstraints verifies every constraint over the full database.
func (w *Workspace) checkAllConstraints() error {
	for _, c := range w.constraints {
		if err := w.runSteps(c.lhsSteps, 0, c.seqFrame(), func(f *frame) error { return w.checkBinding(c, f) }); err != nil {
			return err
		}
	}
	return nil
}

// TxnResult reports what a committed transaction inserted. It reads the
// workspace's own row lists, so it is good until the workspace's next Install,
// Assert or Retract begins.
type TxnResult struct{ w *Workspace }

// Inserted returns the tuples the transaction inserted into pred, in insertion
// order — one it replaced again itself (an aggregate value that moved twice)
// included.
func (r *TxnResult) Inserted(pred string) []datalog.Tuple {
	rel := r.w.rels[pred]
	if rel == nil || len(rel.ins) == 0 {
		return nil
	}
	out := newTuples(len(rel.ins), rel.arity)
	for i, id := range rel.ins {
		rel.view(out[i], id)
	}
	return out
}

// Assert runs one ACID transaction: insert the given base facts, evaluate
// installed rules to a local fixpoint, and check integrity constraints. On
// any violation the entire transaction (input facts included) is rolled
// back and the violation returned, matching the paper's §5.2 semantics.
func (w *Workspace) Assert(facts []Fact) (*TxnResult, error) {
	defer w.publishStats()
	t := w.begin()
	for _, f := range facts {
		if err := w.insertBase(t, w.ensureRelation(f.Pred), f.Tuple); err != nil {
			w.rollback(t)
			return nil, err
		}
	}
	if err := w.fixpoint(t); err != nil {
		w.rollback(t)
		return nil, err
	}
	if err := w.checkTxnConstraints(); err != nil {
		w.rollback(t)
		return nil, err
	}
	return &w.result, nil
}

// AssertProgramFacts parses source-text facts and asserts them.
func (w *Workspace) AssertProgramFacts(src string) (*TxnResult, error) {
	prog, err := datalog.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules) > 0 || len(prog.Constraints) > 0 {
		return nil, fmt.Errorf("AssertProgramFacts accepts facts only")
	}
	facts := make([]Fact, 0, len(prog.Facts))
	for _, a := range prog.Facts {
		f, err := w.groundFact(a)
		if err != nil {
			return nil, err
		}
		facts = append(facts, f)
	}
	return w.Assert(facts)
}

// Retract removes base facts and incrementally maintains derived data with
// a DRed-style delete-and-rederive pass (paper §2: installed rules are
// incrementally maintained using DRed). Constraints are re-verified over the
// full database afterwards; any violation rolls the retraction back.
func (w *Workspace) Retract(facts []Fact) error {
	defer w.publishStats()
	t := w.begin()

	// Phase 1: overestimate deletions. Nothing is deleted yet, so the frontier
	// can name stored tuples by row id, the way a fixpoint round's delta does.
	// The retracted facts are also the seeds phase 3 keeps out.
	deleted, seeds := factSet{}, factSet{}
	frontier := make(map[*Relation][]uint32)
	for _, f := range facts {
		rel := w.rels[f.Pred]
		if rel == nil {
			continue
		}
		vals := w.syms.cells(w.factBuf[:0], f.Tuple)
		w.factBuf = vals
		if len(vals) != rel.arity {
			continue
		}
		seeds.add(rel, vals)
		if row := rel.rowOf(vals); row >= 0 && deleted.add(rel, vals) {
			frontier[rel] = append(frontier[rel], uint32(row))
		}
	}
	for len(frontier) > 0 {
		next := make(map[*Relation][]uint32)
		for rel, rows := range frontier {
			for _, r := range rel.rules {
				for _, plan := range r.deltaPlans {
					if plan[0].rel != rel {
						continue
					}
					err := w.runDelta(plan, rel, rows, r.seqFrame(), func(f *frame) error {
						return w.collectHeadDeletions(r, f, deleted, next)
					})
					if err != nil {
						return err
					}
				}
			}
		}
		frontier = next
	}

	// Phase 2: apply deletions.
	for rel, m := range deleted {
		m.each(func(row []cell) bool {
			if id := rel.rowOf(row); id >= 0 {
				w.deleteRow(t, rel, uint32(id))
			}
			return true
		})
	}

	// Phase 3: rederive survivors. Base facts that were explicitly
	// retracted stay out; everything else that is still derivable returns.
	changed := true
	for changed {
		changed = false
		// Re-run every rule whose head predicate saw deletions; reinsert
		// derivations that were deleted (and are not retracted seeds).
		for del := range deleted {
			for _, r := range w.rulesByHead[del.schema.Name] {
				if err := w.evalRuleInto(t, r); err != nil {
					w.rollback(t)
					return err
				}
				w.nextRound() // cur: what this one evaluation inserted
				for _, rel := range w.cur {
					for _, id := range rel.ins[rel.lo:rel.hi] {
						if seeds.has(rel, rel.row(id)) {
							// a retracted base fact must not return
							w.deleteRow(t, rel, id)
							continue
						}
						changed = true
					}
				}
			}
		}
	}

	// Phase 4: recompute aggregates (groups may shrink or disappear).
	for _, r := range w.aggRules {
		if err := w.retractAggGroups(t, r); err != nil {
			w.rollback(t)
			return err
		}
	}

	// Phase 5: full constraint verification.
	if err := w.checkAllConstraints(); err != nil {
		w.rollback(t)
		return err
	}
	return nil
}

// collectHeadDeletions computes the head tuples a binding would have derived
// and marks existing, non-base ones for deletion.
func (w *Workspace) collectHeadDeletions(r *CompiledRule, f *frame, deleted factSet, next map[*Relation][]uint32) error {
	mark := f.mark()
	defer f.undo(mark)
	for _, ex := range r.exVars {
		ent, ok := w.skolems[string(w.skolemKey(r, f, ex.name))]
		if !ok {
			return nil // derivation never happened
		}
		f.bind(ex.slot, ent)
	}
	for hi := range r.heads {
		var buf [8]cell
		vals := buf[:0]
		cargs := r.cheads[hi]
		for i := range cargs {
			v, err := w.eval(&cargs[i], f)
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		rel := r.headRels[hi]
		if row := rel.derived(vals); row >= 0 && deleted.add(rel, vals) {
			next[rel] = append(next[rel], uint32(row))
		}
	}
	return nil
}

// retractAggGroups recomputes an aggregate from scratch, replacing changed
// values and deleting the groups the body no longer contributes to — the ones
// recomputeAgg never sees.
func (w *Workspace) retractAggGroups(t *txn, r *CompiledRule) error {
	if err := w.recomputeAgg(t, r); err != nil {
		return err
	}
	ka, rel := r.heads[0].KeyArity, r.headRels[0]
	for id, f := range rel.flags {
		if f&rowLive != 0 && r.aggKeys.rowOf(rel.row(uint32(id))[:ka]) < 0 {
			w.deleteRow(t, rel, uint32(id))
		}
	}
	return nil
}

// Tuples returns a snapshot of a predicate's extent.
func (w *Workspace) Tuples(pred string) []datalog.Tuple {
	rel := w.rels[pred]
	if rel == nil {
		return nil
	}
	return rel.Tuples()
}

// Count returns the number of tuples in a predicate.
func (w *Workspace) Count(pred string) int {
	rel := w.rels[pred]
	if rel == nil {
		return 0
	}
	return rel.Len()
}

// Contains reports whether a predicate holds the given tuple. Like every read,
// it interns nothing: a tuple with text the workspace has never seen is absent.
func (w *Workspace) Contains(pred string, tuple datalog.Tuple) bool {
	rel := w.rels[pred]
	return rel != nil && rel.Contains(tuple)
}

// LookupFn looks up a functional predicate's value by its keys.
func (w *Workspace) LookupFn(pred string, keys ...datalog.Value) (datalog.Value, bool) {
	rel := w.rels[pred]
	if rel == nil || rel.fn == nil {
		return datalog.Value{}, false
	}
	var buf [8]cell
	vals, ok := w.syms.lookupCells(buf[:0], keys)
	if !ok || len(vals) != rel.schema.KeyArity {
		return datalog.Value{}, false
	}
	id := rel.lookupFn(vals)
	if id < 0 {
		return datalog.Value{}, false
	}
	return w.syms.value(rel.row(uint32(id))[rel.schema.KeyArity]), true
}

// Predicates returns the names of all predicates with a relation, sorted.
func (w *Workspace) Predicates() []string {
	out := make([]string, 0, len(w.rels))
	for n := range w.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
