package engine

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"secureblox/internal/datalog"
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

// Workspace is a LogicBlox-style database instance: the program it runs —
// predicate definitions, rules and constraints, compiled once and possibly
// shared with other workspaces — and the data it maintains.
type Workspace struct {
	// prog is the bound program; rels holds its relations by number.
	prog *Program
	rels []*Relation
	// reg resolves UDFs by name; udfs are the program's, by number.
	reg         *UDFRegistry
	udfs        []UDF
	entCounters map[string]int64
	skolems     map[string]cell

	// roundRules/roundAggs are fixpoint's per-round rule lists, kept across
	// rounds and transactions so a round allocates neither.
	roundRules, roundAggs []*CompiledRule
	// syms interns the text of every value the workspace stores; the program's
	// constants come first.
	syms symtab
	// txn is the one transaction record (see begin), result what a committed
	// one hands out.
	txn    txn
	result TxnResult
	// The relations the transaction has inserted into (dirty), those with a
	// delta in the fixpoint round being evaluated (cur) and those the round has
	// derived into (nxt); the rows themselves are on each relation's ins.
	dirty, cur, nxt []*Relation
	// What running the program takes besides relations: the one frame, the
	// UDF argument vectors, and per aggregate rule (by aggNo) the group table
	// of its recompute, its keys by row id the index of their accumulators in
	// aggCells.
	frame          frame
	udfArgs        []datalog.Value
	udfMask        []bool
	aggKeys        []*Relation
	aggCells       []aggGroup
	factBuf        []cell // scratch: facts' cells, string +, Skolem keys
	concat, skolem []byte

	// EntityBase offsets generated entity ids so entities created on
	// different nodes never collide when shipped over the network (set it
	// to a distinct large value per node).
	EntityBase int64
	// InstallCheck, when non-nil, runs over each program before Install
	// mutates anything; a returned error rejects the batch. The static
	// analyzer (internal/analysis) hooks in here so error-class findings
	// block installation without the engine importing the analyzer.
	InstallCheck func(*datalog.Program) error

	stats     Stats // cumulative evaluator counters
	published Stats // portion already pushed to the process-wide totals
}

// Stats returns the workspace's cumulative evaluator counters.
func (w *Workspace) Stats() Stats { return w.stats }

// publishStats pushes the counter growth since the last publish into the
// process-wide totals (five atomic adds per transaction, not one per probe).
func (w *Workspace) publishStats() {
	d := w.stats.Sub(w.published)
	if d != (Stats{}) {
		accumulate(d)
		w.published = w.stats
	}
}

// NewWorkspace returns an empty workspace using the given UDF registry
// (nil for none). It holds the principal, self and principal_node relations
// and runs no rule until a program is installed or bound.
func NewWorkspace(udfs *UDFRegistry) *Workspace {
	if udfs == nil {
		udfs = NewUDFRegistry()
	}
	w := &Workspace{
		reg:         udfs,
		entCounters: make(map[string]int64),
		skolems:     make(map[string]cell),
	}
	w.result.w = w
	w.txn.counterSnap = make(map[string]int64)
	w.bind(builtin, nil)
	return w
}

// relation returns the relation named name, nil if the program has none.
func (w *Workspace) relation(name string) *Relation {
	if i, ok := w.prog.relNo[name]; ok {
		return w.rels[i]
	}
	return nil
}

// ensureRelation returns the relation named name, creating it if the program
// does not name it (see adopt): its arity is fixed by its first row.
func (w *Workspace) ensureRelation(name string) *Relation {
	if r := w.relation(name); r != nil {
		return r
	}
	return w.adopt(&Schema{Name: name, Arity: -1, KeyArity: -1, AutoDecl: true})
}

// adopt gives the workspace a relation its program does not name — a fact
// asserted for a predicate no rule mentions — by extending the program with
// it. The extension is the workspace's own; the program it had, which other
// workspaces may be running, is left as it is.
func (w *Workspace) adopt(s *Schema) *Relation {
	p := w.prog.extend()
	p.cat.schemas[s.Name] = s
	(&compiler{p: p}).relation(s.Name)
	w.bind(p, w.udfs)
	return w.rels[len(w.rels)-1]
}

// bind makes p, which extends the workspace's program or is one that program
// extends, the program the workspace runs: the relations both name are kept
// with their rows, the ones only p names are created and the others dropped,
// each takes the schema, checks, rule lists and indexes p gives it, and
// what running p takes besides is sized. udfs are p's UDFs, by number.
func (w *Workspace) bind(p *Program, udfs []UDF) {
	if n := len(p.rels); n < len(w.rels) {
		clear(w.rels[n:])
		w.rels = w.rels[:n]
	}
	for i := range p.rels {
		spec := &p.rels[i]
		if i == len(w.rels) {
			w.rels = append(w.rels, newRelation(spec.schema, &w.syms))
		}
		w.rels[i].bind(spec)
	}
	w.prog, w.udfs = p, udfs
	if len(w.frame.slots) < p.slots {
		w.frame.slots = make([]cell, p.slots)
	}
	if len(w.udfArgs) < p.udfArity {
		w.udfArgs, w.udfMask = make([]datalog.Value, p.udfArity), make([]bool, p.udfArity)
	}
	w.aggKeys = w.aggKeys[:min(len(w.aggKeys), len(p.aggs))]
	for _, r := range p.aggs[len(w.aggKeys):] {
		w.aggKeys = append(w.aggKeys, w.NewTupleSet(r.heads[0].KeyArity))
	}
}

// bindUDFs resolves p's UDFs in the workspace's registry.
func (w *Workspace) bindUDFs(p *Program) ([]UDF, error) {
	udfs := make([]UDF, len(p.udfs))
	for i, name := range p.udfs {
		u, ok := w.reg.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("engine: the program calls UDF %s, which this workspace's registry lacks", name)
		}
		udfs[i] = u
	}
	return udfs, nil
}

// Bind makes a compiled program the one this new workspace runs — its
// relations, the registry's UDFs by the names the program calls, its intern
// table started from the program's constants — then inserts the program's
// facts, evaluates its rules and checks its constraints, as Install does. The
// program stays shared: bind any number of workspaces to it, concurrently.
// The workspace must be new (nothing installed, asserted or bound), and
// InstallCheck is not consulted: vet the program once, where it is compiled.
// On error the workspace is new again.
func (w *Workspace) Bind(p *Program) (err error) {
	if p.err != nil {
		return p.err
	}
	if w.prog != builtin || len(w.syms.spans) > 0 {
		return fmt.Errorf("engine: Bind needs a new workspace")
	}
	udfs, err := w.bindUDFs(p)
	if err != nil {
		return err
	}
	w.syms = p.syms.clone()
	defer func() {
		if err != nil {
			w.syms = symtab{}
		}
	}()
	return w.run(p, udfs)
}

// Install compiles a program onto the one the workspace runs — declarations,
// rules, constraints and facts; the rules already installed keep their plans
// and the new ones see their relations — binds the result, inserts the facts,
// evaluates the new rules and checks all constraints. On any error the
// workspace is restored to its prior state; a program that does not compile
// touches nothing. The compiled program is the workspace's alone (see Bind for
// sharing one).
func (w *Workspace) Install(prog *datalog.Program) error {
	if w.InstallCheck != nil {
		if err := w.InstallCheck(prog); err != nil {
			return err
		}
	}
	m := w.syms.mark()
	p, err := compile(w.prog, &w.syms, prog, w.reg, true)
	var udfs []UDF
	if err == nil {
		udfs, err = w.bindUDFs(p)
	}
	if err == nil {
		err = w.run(p, udfs)
	}
	if err != nil {
		w.syms.restore(m) // the constants the compiler interned
	}
	return err
}

// run binds p, which extends the workspace's program, and runs one
// transaction of what p adds: its facts, then a full evaluation of its own
// rules, then the fixpoint, whose first delta is what those inserted, and a
// check of every constraint. On error the transaction is rolled back and the
// old program bound again.
func (w *Workspace) run(p *Program, udfs []UDF) (err error) {
	defer w.publishStats()
	old, oldUDFs := w.prog, w.udfs
	t := w.begin()
	defer func() {
		if err != nil {
			w.rollback(t)
			w.bind(old, oldUDFs)
		}
	}()
	w.bind(p, udfs)
	for _, f := range p.facts {
		if err := w.insertBase(t, w.rels[f.rel], f.tuple); err != nil {
			return err
		}
	}
	for _, cr := range p.rules[p.first:] {
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

// groundFact resolves a source-text fact against the workspace's relations:
// one the program names must have the atom's shape, and one it does not is
// adopted with it.
func (w *Workspace) groundFact(a *datalog.Atom) (Fact, error) {
	name := a.ConcreteName()
	if rel := w.relation(name); rel != nil {
		if err := rel.schema.admits(a); err != nil {
			return Fact{}, err
		}
	} else {
		w.adopt(autoSchema(a))
	}
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

// checkTuple enforces rel's arity and kind-level type declarations on a row
// about to be stored.
func checkTuple(rel *Relation, vals []cell) error {
	s := rel.schema
	if s.Arity >= 0 && len(vals) != s.Arity {
		return fmt.Errorf("predicate %s: arity mismatch: got %d, want %d", s.Name, len(vals), s.Arity)
	}
	if s.Arity < 0 {
		// An adopted relation's schema, the workspace's own (see adopt).
		s.Arity = len(vals)
		s.ArgTypes = make([]string, len(vals))
	}
	for i, k := range rel.spec.kinds {
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
	return w.runSteps(r.steps, 0, &w.frame, func(f *frame) error {
		return w.derive(t, r, f)
	})
}

// evalRuleDeltas runs the delta-first plan of every body atom of r whose
// relation has a delta this round, inserting derivations.
func (w *Workspace) evalRuleDeltas(t *txn, r *CompiledRule) error {
	emit := func(f *frame) error { return w.derive(t, r, f) }
	for _, plan := range r.deltaPlans {
		rel := w.rels[plan[0].rel]
		if rel.lo == rel.hi {
			continue
		}
		if err := w.runDelta(plan, rel, rel.ins[rel.lo:rel.hi], &w.frame, emit); err != nil {
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
		if err := w.insertDerived(w.rels[ex.rel], []cell{ent}); err != nil {
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
		if err := w.insertDerived(w.rels[r.headRels[hi]], vals); err != nil {
			return err
		}
	}
	return nil
}

// recomputeAgg fully re-evaluates an aggregation rule and replaces changed
// group values (replacement semantics: the old tuple is removed without
// retraction of its prior consequences — see DESIGN.md). It leaves the keys of
// every group the body still supports in the rule's group table.
func (w *Workspace) recomputeAgg(t *txn, r *CompiledRule) error {
	keyN := r.heads[0].KeyArity
	groups := w.aggKeys[r.aggNo]
	groups.reset()
	w.aggCells = w.aggCells[:0]

	err := w.runSteps(r.steps, 0, &w.frame, func(f *frame) error {
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

	rel := w.rels[r.headRels[0]]
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
		// order (compiler.finish), so one relation — the common case — is a copy.
		w.roundRules, w.roundAggs = w.roundRules[:0], w.roundAggs[:0]
		for _, rel := range w.cur {
			w.roundRules = append(w.roundRules, rel.spec.rules...)
			w.roundAggs = append(w.roundAggs, rel.spec.aggs...)
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
	for _, c := range w.prog.constraints {
		for _, plan := range c.lhsDeltaPlans {
			rel := w.rels[plan[0].rel]
			if len(rel.ins) == 0 {
				continue
			}
			if err := w.runDelta(plan, rel, rel.ins, &w.frame, func(f *frame) error { return w.checkBinding(c, f) }); err != nil {
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
		err = &ConstraintViolation{Constraint: c.src.String(), Detail: w.bindingDetail(c.slotNames, f)}
	}
	return err
}

// bindingDetail renders f's binding of the named slots, generated names left out.
func (w *Workspace) bindingDetail(names []string, f *frame) string {
	type nv struct {
		name string
		val  datalog.Value
	}
	var bound []nv
	for slot, name := range names {
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
	for _, c := range w.prog.constraints {
		if err := w.runSteps(c.lhsSteps, 0, &w.frame, func(f *frame) error { return w.checkBinding(c, f) }); err != nil {
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
	rel := r.w.relation(pred)
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
		rel := w.relation(f.Pred)
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
			for _, r := range rel.spec.rules {
				for _, plan := range r.deltaPlans {
					if w.rels[plan[0].rel] != rel {
						continue
					}
					err := w.runDelta(plan, rel, rows, &w.frame, func(f *frame) error {
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
			for _, r := range del.spec.into {
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
	for _, r := range w.prog.aggs {
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
		rel := w.rels[r.headRels[hi]]
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
	ka, rel, groups := r.heads[0].KeyArity, w.rels[r.headRels[0]], w.aggKeys[r.aggNo]
	for id, f := range rel.flags {
		if f&rowLive != 0 && groups.rowOf(rel.row(uint32(id))[:ka]) < 0 {
			w.deleteRow(t, rel, uint32(id))
		}
	}
	return nil
}

// Tuples returns a snapshot of a predicate's extent.
func (w *Workspace) Tuples(pred string) []datalog.Tuple {
	rel := w.relation(pred)
	if rel == nil {
		return nil
	}
	return rel.Tuples()
}

// Count returns the number of tuples in a predicate.
func (w *Workspace) Count(pred string) int {
	rel := w.relation(pred)
	if rel == nil {
		return 0
	}
	return rel.Len()
}

// Contains reports whether a predicate holds the given tuple. Like every read,
// it interns nothing: a tuple with text the workspace has never seen is absent.
func (w *Workspace) Contains(pred string, tuple datalog.Tuple) bool {
	rel := w.relation(pred)
	return rel != nil && rel.Contains(tuple)
}

// LookupFn looks up a functional predicate's value by its keys.
func (w *Workspace) LookupFn(pred string, keys ...datalog.Value) (datalog.Value, bool) {
	rel := w.relation(pred)
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
	for _, rel := range w.rels {
		out = append(out, rel.schema.Name)
	}
	sort.Strings(out)
	return out
}
