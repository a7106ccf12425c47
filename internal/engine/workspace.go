package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"secureblox/internal/datalog"
)

// Fact is one tuple of a named predicate, the unit of assertion and
// retraction.
//
// A Transient fact lives for the transaction that asserts it — the reading of
// an asynchronous head in Dedalus, which holds at the receiver for one step:
// rules and constraints read it as any fact, and when the transaction ends it
// is gone. It stays only if the transaction also derives it, or asserts it
// without the mark. A transient fact the store already holds is no news, like
// any known fact.
type Fact struct {
	Pred      string
	Tuple     datalog.Tuple
	Transient bool
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
	cells []cell
	mark  symMark // where the intern table stood when the transaction began
	// err is the error of the fact Add could not insert, after which the
	// transaction is rolled back.
	err error
}

// begin starts a transaction. A workspace runs one at a time, so the undo log
// and the relations' row lists — the Skolem tables' among them — are the
// previous transaction's, emptied, which is where a committed TxnResult stops
// being readable.
func (w *Workspace) begin() *txn {
	t := &w.txn
	t.undo, t.cells = t.undo[:0], t.cells[:0]
	w.dropLists()
	t.mark, w.syms.open = w.syms.mark(), true
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
			rel.clear(rel.ins[i], rowNew|rowBorn|rowDelta|rowTransient)
		}
		rel.ins, rel.lo, rel.hi, rel.transient = rel.ins[:0], 0, 0, 0
	}
	w.dirty, w.cur, w.nxt = w.dirty[:0], w.cur[:0], w.nxt[:0]
}

// nextRound makes what the last round derived — everything listed since the
// previous call — the delta of the next, and reports whether there is any.
// Between calls every relation outside cur has lo == hi <= len(ins), and is in
// nxt exactly when hi < len(ins). The rows keep the state in their flags, for
// the delta plans to hide: the old delta's rows lose rowDelta, and the new
// delta's trade rowBorn for it, over the ids the round walks anyway.
func (w *Workspace) nextRound() bool {
	for _, rel := range w.cur {
		for _, id := range rel.ins[rel.lo:rel.hi] {
			rel.flags[id] &^= rowDelta
		}
		rel.lo = rel.hi
	}
	w.cur, w.nxt = w.nxt, w.cur[:0]
	for _, rel := range w.cur {
		rel.lo, rel.hi = rel.hi, len(rel.ins)
		for _, id := range rel.ins[rel.lo:rel.hi] {
			rel.flags[id] = rel.flags[id]&^rowBorn | rowDelta
		}
	}
	return len(w.cur) > 0
}

// aggGroup accumulates one group of an aggregate recompute.
type aggGroup struct{ acc, n int64 }

// Workspace is a LogicBlox-style database instance: the program it runs —
// predicate definitions, rules and constraints, compiled once and possibly
// shared with other workspaces — and the data it maintains.
type Workspace struct {
	// prog is the bound program; rels holds its relations by number.
	prog *Program
	rels []*Relation
	// reg resolves UDFs by name; udfs are the program's, by number.
	reg  *UDFRegistry
	udfs []UDF

	// roundRules/roundAggs are fixpoint's per-round rule lists, kept across
	// rounds and transactions so a round allocates neither.
	roundRules, roundAggs []*CompiledRule
	// hide is the row flags a match step skips: rowBorn while evalRuleDeltas
	// runs a round's delta plans, and 0 for every other evaluation.
	hide uint8
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
	// UDF argument vectors, per aggregate rule (by aggNo) the group table
	// of its recompute, its keys by row id the index of their accumulators in
	// aggCells, and per head existential (by headEx.skolem) its Skolem table,
	// whose rows a transaction lists and a rollback removes as it does any
	// other relation's. No fixpoint round reads a Skolem table, and Retract
	// keeps it, so a rederived binding finds its entity.
	frame    frame
	udfArgs  []datalog.Value
	udfMask  []bool
	aggKeys  []*Relation
	aggCells []aggGroup
	skolems  []*Relation
	factBuf  []cell   // scratch: facts' cells, Skolem rows
	live     []uint32 // scratch: liveRows' copy of a list without its dead rows

	// EntityBase offsets generated entity ids so entities created on
	// different nodes never collide when shipped over the network (set it
	// to a distinct large value per node).
	EntityBase int64

	stats     Stats // cumulative evaluator counters
	published Stats // portion already pushed to the process-wide totals
}

// Stats returns the workspace's cumulative evaluator counters.
func (w *Workspace) Stats() Stats { return w.stats }

// publishStats pushes the counter growth since the last publish into the
// process-wide totals (six atomic adds per transaction, not one per probe).
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
	w := &Workspace{reg: udfs}
	w.result.w = w
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

// relationFor returns the relation f asserts into, adopting one of f's arity
// if the program does not name it (see adopt).
func (w *Workspace) relationFor(f Fact) *Relation {
	if r := w.relation(f.Pred); r != nil {
		return r
	}
	n := len(f.Tuple)
	return w.adopt(&Schema{Name: f.Pred, Arity: n, KeyArity: -1, ArgTypes: make([]string, n), AutoDecl: true})
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
	w.rels, w.skolems = w.bindRels(w.rels, p.rels), w.bindRels(w.skolems, p.skolems)
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

// bindRels returns rels cut or grown to one relation per spec, each bound to
// its spec: a relation both name keeps its rows.
func (w *Workspace) bindRels(rels []*Relation, specs []relSpec) []*Relation {
	if n := len(specs); n < len(rels) {
		clear(rels[n:])
		rels = rels[:n]
	}
	for i := range specs {
		if i == len(rels) {
			rels = append(rels, newRelation(specs[i].schema, &w.syms))
		}
		rels[i].bind(&specs[i])
	}
	return rels
}

// Bind makes a compiled program the one this new workspace runs — its
// relations, the registry's UDFs by the names the program calls, its intern
// table started from the program's constants — then runs one transaction: the
// program's facts, a full evaluation of its rules, the fixpoint, whose first
// delta is what those inserted, and a check of every constraint. The program
// stays shared: bind any number of workspaces to it, concurrently. The
// workspace must be new (nothing installed, asserted or bound); vet the
// program once, where it is compiled. On error the workspace is new again.
func (w *Workspace) Bind(p *Program) (err error) {
	if p.err != nil {
		return p.err
	}
	if w.prog != builtin || len(w.syms.spans) > 0 {
		return fmt.Errorf("engine: Bind needs a new workspace")
	}
	udfs := make([]UDF, len(p.udfs))
	for i, name := range p.udfs {
		u, ok := w.reg.Lookup(name)
		if !ok {
			return fmt.Errorf("engine: the program calls UDF %s, which this workspace's registry lacks", name)
		}
		udfs[i] = u
	}
	defer w.publishStats()
	w.syms = p.syms.clone()
	t := w.begin()
	defer func() {
		if err != nil {
			w.bind(builtin, nil)
			w.syms = symtab{}
		}
	}()
	w.bind(p, udfs)
	for _, f := range p.facts {
		if err := w.insertBase(t, w.rels[f.rel], f.tuple, false); err != nil {
			return w.end(t, err)
		}
	}
	return w.end(t, w.evaluate(t))
}

// Install compiles prog (Compile) and binds it (Bind) to this new workspace.
func (w *Workspace) Install(prog *datalog.Program) error {
	p, err := Compile(prog, w.reg)
	if err != nil {
		return err
	}
	return w.Bind(p)
}

// evaluate evaluates every rule in full — an aggregate rule by recomputing it,
// any other by its first plan over the whole database — then runs the
// fixpoint, whose first delta is everything the transaction has inserted, and
// checks every constraint.
func (w *Workspace) evaluate(t *txn) error {
	for _, cr := range w.prog.rules {
		var err error
		if cr.agg != nil {
			err = w.recomputeAgg(t, cr)
		} else {
			err = w.evalRuleInto(cr)
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
	if len(vals) != s.Arity {
		return fmt.Errorf("predicate %s: arity mismatch: got %d, want %d", s.Name, len(vals), s.Arity)
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
// check, the result and rollback alike. Until that round the row is born, and
// the delta plans of this one do not see it. A row that is not transient
// keeps the text of any view symbol it names.
func (w *Workspace) store(rel *Relation, vals []cell, h uint64, flags uint8) error {
	if flags&rowTransient == 0 && len(w.syms.views) > 0 {
		w.syms.keep(vals)
	}
	id, ok := rel.add(vals, h, flags|rowLive|rowNew|rowBorn)
	if !ok {
		old := rel.row(uint32(rel.lookupFn(vals[:rel.schema.KeyArity])))
		return &ConstraintViolation{
			Constraint: fmt.Sprintf("functional dependency on %s", rel.schema.Name),
			Detail:     fmt.Sprintf("key maps to both %s and %s", w.syms.tuple(old), w.syms.tuple(vals)),
		}
	}
	if flags&rowTransient != 0 {
		rel.transient++
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

// insertBase inserts one EDB fact, interning its text — a transient one into a
// transient row. A fact the relation already holds as a derived tuple is
// promoted in place, and the promotion logged unless the row is the
// transaction's own; a transient row is kept, as an EDB fact. A transient fact
// the relation already holds changes nothing.
func (w *Workspace) insertBase(t *txn, rel *Relation, tuple datalog.Tuple, transient bool) error {
	vals, err := w.syms.cells(w.factBuf[:0], tuple)
	w.factBuf = vals
	if err != nil {
		return err
	}
	h := hashCells(vals)
	if id := rel.find(&rel.primary, h, vals); id != 0 {
		switch f := &rel.flags[id-1]; {
		case transient: // the store holds it already, or this transaction does
		case *f&rowTransient != 0:
			w.keep(rel, id-1)
			*f |= rowBase
		case *f&rowBase == 0:
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
	flags := rowBase
	if transient {
		flags = rowTransient
	}
	return w.store(rel, vals, h, flags)
}

// keep makes transient row id of rel one the transaction leaves in the store,
// with a copy of its text.
func (w *Workspace) keep(rel *Relation, id uint32) {
	rel.flags[id] &^= rowTransient
	rel.transient--
	w.syms.keep(rel.row(id))
}

// insertDerived adds one derived row of rel unless rel already holds it.
// vals is the caller's scratch, and stays on its stack: one hash serves the
// existence check and the insert, so rederiving an existing row — the
// overwhelmingly common case inside a fixpoint — has nothing to insert, log,
// propagate or allocate, and a new one costs its cells in the relation's page
// and a four-byte entry on the relation's list. Deriving a transient row keeps
// it.
func (w *Workspace) insertDerived(rel *Relation, vals []cell) error {
	h := hashCells(vals)
	if id := rel.find(&rel.primary, h, vals); id != 0 {
		if rel.transient > 0 && rel.flags[id-1]&rowTransient != 0 {
			w.keep(rel, id-1)
		}
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
	w.syms.restore(t.mark) // no cell names what the transaction interned any more
}

// evalRuleInto fully evaluates one non-aggregate rule — its first plan over
// the whole database — and inserts derivations.
func (w *Workspace) evalRuleInto(r *CompiledRule) error {
	return w.runDelta(&r.deltaPlans[0], nil, &w.frame, func(f *frame) error {
		return w.derive(r, f)
	})
}

// evalRuleDeltas runs the delta-first plan of every body atom of r whose
// relation has a delta this round, inserting derivations. Its match steps hide
// the rows this round has stored (w.hide), so each binding is found once.
func (w *Workspace) evalRuleDeltas(r *CompiledRule) (err error) {
	emit := func(f *frame) error { return w.derive(r, f) }
	w.hide = rowBorn
	for i := range r.deltaPlans {
		plan := &r.deltaPlans[i]
		rel := w.rels[plan.steps[0].rel]
		if rel.lo == rel.hi {
			continue
		}
		if err = w.runDelta(plan, rel.ins[rel.lo:rel.hi], &w.frame, emit); err != nil {
			break
		}
	}
	w.hide = 0
	return err
}

// derive materializes all head atoms of a rule for one body binding,
// creating Skolemized entities for head-existential variables: the binding's
// row of each one's Skolem table holds its entity, and a binding without one
// mints the type's next, numbered from EntityBase + 1 by the Skolem rows of
// its type. Head tuples are built in a stack buffer and handed to
// insertDerived.
func (w *Workspace) derive(r *CompiledRule, f *frame) error {
	w.stats.Derivations++
	mark := f.mark()
	defer f.undo(mark)

	for _, ex := range r.exVars {
		sk, row := w.skolems[ex.skolem], w.factBuf[:0]
		for _, slot := range r.bodySlots {
			row = append(row, f.slots[slot])
		}
		var ent cell
		if id := sk.lookupFn(row); id >= 0 {
			ent = sk.row(uint32(id))[len(row)]
		} else {
			n := uint64(w.EntityBase) + 1
			for _, k := range w.rels[ex.rel].spec.skolems {
				n += uint64(w.skolems[k].n)
			}
			ent = mkCell(datalog.KindEntity, ex.entSym, n)
			row = append(row, ent)
			if err := w.store(sk, row, hashCells(row), 0); err != nil {
				return err
			}
		}
		w.factBuf = row
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

// recomputeAgg fully re-evaluates an aggregation rule — its first plan over
// the whole database — and replaces changed
// group values (replacement semantics: the old tuple is deleted, and what rules
// derived from it stays, since nothing is retracted). It leaves the keys of
// every group the body still supports in the rule's group table.
func (w *Workspace) recomputeAgg(t *txn, r *CompiledRule) error {
	keyN := r.heads[0].KeyArity
	groups := w.aggKeys[r.aggNo]
	groups.reset()
	w.aggCells = w.aggCells[:0]

	err := w.runDelta(&r.deltaPlans[0], nil, &w.frame, func(f *frame) error {
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
			if r.agg.Func != "count" && v.kind() != datalog.KindInt {
				return fmt.Errorf("aggregate %s over non-integer %s", r.agg.Func, w.syms.value(v))
			}
			over = int64(v.bits())
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
		n := g.acc
		if r.agg.Func == "count" {
			n = g.n
		}
		result := mkCell(datalog.KindInt, 0, uint64(n))
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
// transaction has inserted since the last round. The semi-naïve is exact: a
// round's delta plans read no row the round stores, which waits for the next
// round, so a binding is derived once, in the round its last row arrives —
// unless its location row arrives in that round too, which the location
// lookups, reading the whole relation, may find a second time. Aggregate
// recomputes are full evaluations, and read the live store.
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
			if err := w.evalRuleDeltas(r); err != nil {
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
// tuples the transaction inserted and left in place (incremental LHS
// restriction), but for those the store already enforced on insert: a listed
// row deleted again — an aggregate value replaced later in the transaction —
// is not part of the state it commits. A left-hand side with no atom has no
// plan a transaction's rows lead, and is checked only in full.
func (w *Workspace) checkTxnConstraints() error {
	for _, c := range w.prog.constraints {
		if c.storeChecked {
			continue
		}
		for i := range c.lhsDeltaPlans {
			plan := &c.lhsDeltaPlans[i]
			if !plan.led() {
				continue
			}
			rows := w.liveRows(w.rels[plan.steps[0].rel])
			if len(rows) == 0 {
				continue
			}
			if err := w.runDelta(plan, rows, &w.frame, func(f *frame) error { return w.checkBinding(c, f) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// liveRows returns the rows on rel's list that are still live: the list
// itself, unless the transaction deleted one of them again, and then a copy
// without the dead ones in w.live.
func (w *Workspace) liveRows(rel *Relation) []uint32 {
	for i, id := range rel.ins {
		if rel.flags[id]&rowLive != 0 {
			continue
		}
		w.live = append(w.live[:0], rel.ins[:i]...)
		for _, id := range rel.ins[i+1:] {
			if rel.flags[id]&rowLive != 0 {
				w.live = append(w.live, id)
			}
		}
		return w.live
	}
	return rel.ins
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

// checkAllConstraints verifies every constraint over the full database, each
// by its first left-hand-side plan.
func (w *Workspace) checkAllConstraints() error {
	for _, c := range w.prog.constraints {
		if err := w.runDelta(&c.lhsDeltaPlans[0], nil, &w.frame, func(f *frame) error { return w.checkBinding(c, f) }); err != nil {
			return err
		}
	}
	return nil
}

// TxnResult reports what a committed transaction inserted. It reads the
// workspace's own row lists, so it is good until the workspace's next Assert
// or Retract begins.
type TxnResult struct {
	w   *Workspace
	row datalog.Tuple // InsertedRows' one view
}

// Inserted returns the tuples the transaction inserted into pred, in insertion
// order — one it replaced again itself (an aggregate value that moved twice)
// included, a transient one, gone with the transaction, not.
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

// InsertedRows returns the tuples Inserted lists, in its order, without
// building the list: Rows.At reads each into one reused view, overwritten by
// the next, whose values' text stays valid for the life of the workspace. A
// caller that keeps a tuple copies it.
func (r *TxnResult) InsertedRows(pred string) Rows {
	rel := r.w.relation(pred)
	if rel == nil {
		return Rows{}
	}
	if cap(r.row) < rel.arity {
		r.row = make(datalog.Tuple, rel.arity)
	}
	return Rows{rel: rel, row: r.row[:rel.arity]}
}

// Rows is one relation's inserted rows of a transaction, read by position.
type Rows struct {
	rel *Relation
	row datalog.Tuple
}

// Len is the number of rows.
func (rs Rows) Len() int {
	if rs.rel == nil {
		return 0
	}
	return len(rs.rel.ins)
}

// At returns row i as the one reused view.
func (rs Rows) At(i int) datalog.Tuple {
	rs.rel.view(rs.row, rs.rel.ins[i])
	return rs.row
}

// Assert runs one ACID transaction: insert the given base facts, evaluate
// installed rules to a local fixpoint, and check integrity constraints. On
// any violation the entire transaction (input facts included) is rolled
// back and the violation returned, matching the paper's §5.2 semantics.
// Otherwise it commits, and its transient facts leave the store. It is
// Begin, one Add per fact and Commit.
func (w *Workspace) Assert(facts []Fact) (*TxnResult, error) {
	w.Begin()
	for _, f := range facts {
		w.Add(f)
	}
	return w.Commit()
}

// Begin starts a transaction whose base facts Add inserts one at a time and
// Commit ends. Nothing is allocated per transaction or per fact, so a caller
// that holds its facts in another shape — a node's decoded datagrams — feeds
// them through one reused tuple instead of building a list.
func (w *Workspace) Begin() {
	w.begin().err = nil
}

// Add inserts one base fact into the transaction Begin started. Its values
// are read at once, so the caller may reuse f.Tuple for the next fact; new
// text is viewed, not copied, and must not change until Commit returns. A
// fact that cannot be inserted rolls the transaction back: Commit returns its
// error, and every Add until then does nothing.
func (w *Workspace) Add(f Fact) {
	t := &w.txn
	if t.err != nil {
		return
	}
	if err := w.insertBase(t, w.relationFor(f), f.Tuple, f.Transient); err != nil {
		w.rollback(t)
		t.err = err
	}
}

// Commit ends the transaction Begin started, as Assert describes: the
// fixpoint, the constraint check, and a rollback on any error, an Add's
// included.
func (w *Workspace) Commit() (*TxnResult, error) {
	defer w.publishStats()
	t := &w.txn
	if t.err != nil {
		return nil, t.err
	}
	err := w.fixpoint(t)
	if err == nil {
		err = w.checkTxnConstraints()
	}
	if err := w.end(t, err); err != nil {
		return nil, err
	}
	return &w.result, nil
}

// end ends transaction t, which err, if not nil, rolls back and end returns.
// One that stands leaves its transient rows out of the store and its lists,
// their ids free for the next rows, and the view symbols no stored row kept
// out of the intern table.
func (w *Workspace) end(t *txn, err error) error {
	if err != nil {
		w.rollback(t)
		return err
	}
	for _, rel := range w.dirty {
		if rel.transient == 0 {
			continue
		}
		ins := rel.ins[:0]
		for _, id := range rel.ins {
			if rel.flags[id]&rowTransient == 0 {
				ins = append(ins, id)
				continue
			}
			if rel.flags[id]&rowLive != 0 {
				rel.remove(id)
			}
			rel.clear(id, rowNew|rowBorn|rowDelta|rowTransient)
		}
		rel.ins, rel.lo, rel.hi, rel.transient = ins, len(ins), len(ins), 0
	}
	w.syms.end()
	return nil
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

// Retract removes base facts in one transaction that recomputes the derived
// data from the base facts left: it deletes the named rows and every row no
// fact asserted, then evaluates every rule as Bind does and checks every
// constraint. A named fact the rules still derive stays, as a derived row, and
// one the store lacks is ignored. Any error rolls the retraction back.
// Transient facts are not base facts, and were gone when their transaction
// committed: what a node imported from inbound payloads (transient export
// facts) is derived from nothing Retract keeps, and goes. No node calls it.
func (w *Workspace) Retract(facts []Fact) error {
	defer w.publishStats()
	t := w.begin()
	for _, f := range facts {
		if rel := w.relation(f.Pred); rel != nil {
			if id := rel.rowOfTuple(f.Tuple); id >= 0 {
				w.deleteRow(t, rel, uint32(id))
			}
		}
	}
	for _, rel := range w.rels {
		for id, f := range rel.flags {
			if f&(rowLive|rowBase) == rowLive {
				w.deleteRow(t, rel, uint32(id))
			}
		}
	}
	return w.end(t, w.evaluate(t))
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

// Symbols returns how many texts the workspace's intern table holds.
func (w *Workspace) Symbols() int { return len(w.syms.spans) - len(w.syms.free) }

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
