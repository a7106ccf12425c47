package engine

import (
	"fmt"
	"math/bits"
	"slices"

	"secureblox/internal/datalog"
)

// hashIndex is the one index type of the store: a chained hash table from
// the hash of a row's projection onto cols to the ids holding it — a
// relation's primary index (the whole row), its functional-dependency index
// (the key prefix) and the secondary indexes join plans register (their bound
// columns) alike, and the intern table's index of symbol text. Chains are
// threaded through ents, one link per id, so linking an id allocates nothing
// but the amortised growth of heads and ents.
type hashIndex struct {
	cols  []int      // projected columns, ascending; nil projects every column
	heads []uint32   // bucket → first id + 1 (0: empty); power-of-two length, nil until the first id
	ents  []idxEntry // id → chain link
}

// idxEntry links one id into its bucket's chain. hash keeps the low half of
// the projection hash: it picks the bucket at any table size, and lets a probe
// skip a colliding row without touching its cells.
type idxEntry struct {
	hash uint32
	next uint32 // next id + 1 in the chain, 0 at the end
}

// matches reports whether row's projection onto the index columns equals vals —
// the equality verification behind every hash probe.
func (x *hashIndex) matches(row, vals []cell) bool {
	if x.cols == nil {
		return slices.Equal(row, vals)
	}
	for i, c := range x.cols {
		if row[c] != vals[i] {
			return false
		}
	}
	return true
}

// bucket returns the chain head that ids hashing to h hang off; the table
// must have been allocated.
func (x *hashIndex) bucket(h uint32) *uint32 { return &x.heads[h&uint32(len(x.heads)-1)] }

// first returns the first id + 1 of the chain for hash h, 0 if empty.
func (x *hashIndex) first(h uint64) uint32 {
	if len(x.heads) == 0 {
		return 0
	}
	return *x.bucket(uint32(h))
}

// link adds id (hashing to h) at the head of its chain; n is the id count
// including it, which the table is grown to hold at load factor one.
func (x *hashIndex) link(id uint32, h uint64, n int) {
	if n > len(x.heads) {
		x.grow()
	}
	b := x.bucket(uint32(h))
	e := idxEntry{hash: uint32(h), next: *b}
	if int(id) == len(x.ents) {
		x.ents = append(x.ents, e)
	} else {
		x.ents[id] = e
	}
	*b = id + 1
}

// grow doubles the bucket table, splitting every chain in two. A split keeps
// the relative order of the ids that stay together, so a probe part-way down
// a chain, whose callback's insert triggered the growth, still reaches every
// row it had ahead of it.
func (x *hashIndex) grow() {
	old := len(x.heads)
	if old == 0 {
		x.heads = make([]uint32, 8)
		return
	}
	x.heads = append(make([]uint32, 0, 2*old), x.heads...)[:2*old]
	for b := 0; b < old; b++ {
		lo, hi := &x.heads[b], &x.heads[b+old]
		for id := *lo; id != 0; {
			e := &x.ents[id-1]
			next := e.next
			if e.hash&uint32(old) == 0 {
				*lo, lo = id, &e.next
			} else {
				*hi, hi = id, &e.next
			}
			id = next
		}
		*lo, *hi = 0, 0
	}
}

// unlink removes id from its chain.
func (x *hashIndex) unlink(id uint32) {
	e := x.ents[id]
	p := x.bucket(e.hash)
	for *p != id+1 {
		p = &x.ents[*p-1].next
	}
	*p = e.next
}

// Row flags, one byte per row id in Relation.flags.
const (
	rowLive uint8 = 1 << iota // the row is in the relation
	rowBase                   // the row was asserted as an EDB fact
	// rowNew: the workspace's current transaction inserted the row, which is
	// therefore on ins. Deleting it does not free the id: the row keeps its
	// cells, dead, until the transaction's list is dropped, so that an id on
	// ins names one tuple for as long as the list is read.
	rowNew
)

// Pages hold 1<<pageShift rows (128), except a relation's first few, which
// double from 1<<firstShift (8, 8, 16, 32, 64): a relation of a few rows
// costs a few rows.
const pageShift, firstShift = 7, 3

// smallPages is the number of pages before the first full one.
const smallPages = pageShift - firstShift + 1

// page returns the page holding row id and the id of the page's first row.
// Below 1<<pageShift, page p > 0 starts at 4<<p, id's highest bit.
func page(id uint32) (p int, start uint32) {
	if id < 1<<pageShift {
		p = bits.Len32(id >> firstShift)
		return p, 1 << (firstShift - 1) << p &^ (1<<firstShift - 1)
	}
	return int(id>>pageShift) + smallPages - 1, id &^ (1<<pageShift - 1)
}

// Relation stores the extent of one predicate as a row store: each row is
// arity cells at a 32-bit row id (ids of deleted rows are reused), in pages
// addressed by id that are never reallocated, so growing a relation copies
// nothing; flags mark live and EDB rows; and every access path — whole row,
// functional key, a join plan's bound columns — is a hashIndex from a
// projection hash to row ids, verified by cell equality. Text is a symbol of
// the owning workspace's intern table; Insert, Contains, Delete and Tuples
// translate datalog values at the boundary.
//
// Iteration and mutation: each visits rows in id order (insertion order until
// a deleted row's id is reused), probe a chain newest first; the orders are a
// function of the operation sequence and no more of a contract than that. A
// callback may insert into the relation it is iterating — recursive rules do —
// and the new row may or may not be visited; it must not delete from it.
//
// Concurrency contract: the read paths (Contains, Len, Tuples and their
// internal forms) are safe for any number of concurrent readers provided no
// goroutine writes (Insert, Delete, or any transaction of the workspace).
type Relation struct {
	schema *Schema
	syms   *symtab  // the owning workspace's intern table
	arity  int      // cells per row; -1 until the first row fixes it
	pages  [][]cell // row id → its arity cells, see row
	flags  []uint8  // row id → rowLive | rowBase | rowNew; its length is the ids handed out
	free   []uint32 // deleted row ids awaiting reuse
	n      int
	// idx holds every index: the primary first, then the functional one (fn,
	// for p[k]=v predicates), then the secondary indexes in registration order.
	idx     []*hashIndex
	fn      *hashIndex
	primary hashIndex

	// What the owning workspace keeps per relation (workspace.go): ins lists the
	// rows its current transaction inserted, in order; ins[lo:hi] is the delta
	// of the fixpoint round being evaluated and ins[hi:] what that round has
	// derived. kinds are the argument checks of the declared schema, rules and
	// aggs the installed rules with a delta plan led by this relation, by id.
	ins         []uint32
	lo, hi      int
	kinds       []argKind
	rules, aggs []*CompiledRule
}

// newRelation returns an empty relation for the given schema over syms. Pages
// and hash tables are allocated by the first insert, so an unused relation
// costs its header only.
func newRelation(s *Schema, syms *symtab) *Relation {
	r := &Relation{schema: s, syms: syms, arity: s.Arity}
	r.idx = append(make([]*hashIndex, 0, 2), &r.primary)
	if s.Functional() {
		r.fn = &hashIndex{cols: make([]int, s.KeyArity)}
		for k := range r.fn.cols {
			r.fn.cols[k] = k
		}
		r.idx = append(r.idx, r.fn)
	}
	return r
}

// NewTupleSet returns an index-less relation of the given arity over the
// workspace's intern table: a set of tuples addressed by hash and verified by
// equality. Inserting into it interns, so it is written, like the workspace,
// by one goroutine at a time, and never inside a transaction.
func (w *Workspace) NewTupleSet(arity int) *Relation {
	return newRelation(&Schema{Arity: arity, KeyArity: -1}, &w.syms)
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// row returns the cells of row id.
func (r *Relation) row(id uint32) []cell {
	p, start := page(id)
	off := int(id-start) * r.arity
	return r.pages[p][off : off+r.arity : off+r.arity]
}

// find returns the id + 1 of the first row in h's chain of x whose projection
// equals vals, or 0.
func (r *Relation) find(x *hashIndex, h uint64, vals []cell) uint32 {
	for id := x.first(h); id != 0; id = x.ents[id-1].next {
		if x.ents[id-1].hash == uint32(h) && x.matches(r.row(id-1), vals) {
			return id
		}
	}
	return 0
}

// rowOf returns the row id of the row equal to vals, or -1.
func (r *Relation) rowOf(vals []cell) int {
	if len(vals) != r.arity {
		return -1
	}
	return int(r.find(&r.primary, hashCells(vals), vals)) - 1
}

// lookupFn returns the id of the row stored under the given functional key, or -1.
func (r *Relation) lookupFn(keys []cell) int {
	if r.fn == nil {
		return -1
	}
	return int(r.find(r.fn, hashCells(keys), keys)) - 1
}

// ensureIndex registers (or returns) the secondary index over the given
// column set, backfilling it from the current extent. cols must be sorted
// ascending and within the relation's arity.
func (r *Relation) ensureIndex(cols []int) *hashIndex {
	for _, x := range r.idx[1:] {
		if x != r.fn && slices.Equal(x.cols, cols) {
			return x
		}
	}
	x := &hashIndex{cols: slices.Clone(cols), ents: make([]idxEntry, len(r.flags))}
	r.idx = append(r.idx, x)
	n := 0
	for id, f := range r.flags {
		if f&rowLive != 0 {
			n++
			x.link(uint32(id), hashCols(r.row(uint32(id)), cols), n)
		}
	}
	return x
}

// probe iterates the rows whose projection onto x.cols equals vals (vals[i]
// corresponds to column x.cols[i]). fn returning false stops.
func (r *Relation) probe(x *hashIndex, vals []cell, fn func([]cell) bool) {
	h := hashCells(vals)
	// The link is read after fn returns: fn may insert, which can split the
	// chain, and only a row with the probed hash — in the probed bucket at
	// every table size — is a safe place to carry on from.
	for id := x.first(h); id != 0; id = x.ents[id-1].next {
		if x.ents[id-1].hash != uint32(h) {
			continue
		}
		if row := r.row(id - 1); x.matches(row, vals) && !fn(row) {
			return
		}
	}
}

// probeExists reports whether any row matches the projection — the
// partially bound negation check.
func (r *Relation) probeExists(x *hashIndex, vals []cell) bool {
	return r.find(x, hashCells(vals), vals) != 0
}

// InsertResult describes the outcome of an insert.
type InsertResult int

// Insert outcomes.
const (
	InsertedNew        InsertResult = iota // tuple added
	InsertedDup                            // tuple already present (no-op)
	InsertedFDConflict                     // functional-dependency violation
)

// Insert adds a tuple, interning its text. For functional predicates,
// inserting a different value under an existing key reports
// InsertedFDConflict and leaves the relation unchanged (the caller decides
// whether that aborts the transaction or, for aggregate-owned predicates,
// triggers replacement). A tuple whose length is not the relation's arity is
// a caller's bug, and panics.
func (r *Relation) Insert(t datalog.Tuple, isBase bool) InsertResult {
	var buf [8]cell
	return r.insert(r.syms.cells(buf[:0], t), isBase)
}

// insert is Insert over cells; the relation copies vals.
func (r *Relation) insert(vals []cell, isBase bool) InsertResult {
	if r.arity >= 0 && len(vals) != r.arity {
		panic(fmt.Sprintf("engine: %d-cell row inserted into %s of arity %d", len(vals), r.schema.Name, r.arity))
	}
	h := hashCells(vals)
	if id := r.find(&r.primary, h, vals); id != 0 {
		if isBase {
			r.flags[id-1] |= rowBase
		}
		return InsertedDup
	}
	flags := rowLive
	if isBase {
		flags |= rowBase
	}
	if _, ok := r.add(vals, h, flags); !ok {
		return InsertedFDConflict
	}
	return InsertedNew
}

// add copies vals — which hash to h, and which the caller's probe of the
// primary index found absent — into a row and returns its id; or false, with
// nothing stored, when another row holds vals' functional key.
func (r *Relation) add(vals []cell, h uint64, flags uint8) (uint32, bool) {
	var kh uint64
	if r.fn != nil {
		ka := r.schema.KeyArity
		kh = hashCells(vals[:ka])
		if r.find(r.fn, kh, vals[:ka]) != 0 {
			return 0, false
		}
	}
	if r.arity < 0 {
		r.arity = len(vals)
	}
	var id uint32
	if k := len(r.free); k > 0 {
		id, r.free = r.free[k-1], r.free[:k-1]
		r.flags[id] = flags
	} else {
		id = uint32(len(r.flags))
		if p, start := page(id); p == len(r.pages) {
			rows := 1 << pageShift
			if p < smallPages {
				rows = max(int(start), 1<<firstShift)
			}
			r.pages = append(r.pages, make([]cell, rows*r.arity))
		}
		r.flags = append(r.flags, flags)
	}
	copy(r.row(id), vals)
	r.n++
	r.primary.link(id, h, r.n)
	rest := r.idx[1:]
	if r.fn != nil {
		r.fn.link(id, kh, r.n)
		rest = rest[1:]
	}
	for _, x := range rest {
		x.link(id, hashCols(vals, x.cols), r.n)
	}
	return id, true
}

// Delete removes a tuple if present, returning whether it was removed. It
// never interns: a tuple with text the workspace has never seen is absent.
func (r *Relation) Delete(t datalog.Tuple) bool {
	row := r.rowOfTuple(t)
	if row >= 0 {
		r.remove(uint32(row))
	}
	return row >= 0
}

// Contains reports whether the tuple is present (one hash, no allocation, no
// interning).
func (r *Relation) Contains(t datalog.Tuple) bool { return r.rowOfTuple(t) >= 0 }

// rowOfTuple is rowOf for a tuple of values.
func (r *Relation) rowOfTuple(t datalog.Tuple) int {
	var buf [8]cell
	vals, ok := r.syms.lookupCells(buf[:0], t)
	if !ok {
		return -1
	}
	return r.rowOf(vals)
}

// remove takes live row id out of the relation: it leaves every index.
func (r *Relation) remove(id uint32) {
	for _, x := range r.idx {
		x.unlink(id)
	}
	r.n--
	r.clear(id, rowLive|rowBase)
}

// clear takes flags off row id. A row left with none — out of the relation and
// on no transaction's list (rowNew) — is free, and its cells are the next
// row's to overwrite.
func (r *Relation) clear(id uint32, flags uint8) {
	if r.flags[id] &^= flags; r.flags[id] == 0 {
		r.free = append(r.free, id)
	}
}

// reset empties the relation, keeping its indexes registered and the pages
// and tables it has grown for the next fill.
func (r *Relation) reset() {
	r.flags, r.free, r.n = r.flags[:0], r.free[:0], 0
	for _, x := range r.idx {
		clear(x.heads)
		x.ents = x.ents[:0]
	}
}

// derived returns the row holding vals if it is present and not an EDB fact —
// what a retraction may over-delete — in one lookup; -1 otherwise.
func (r *Relation) derived(vals []cell) int {
	if id := r.rowOf(vals); id >= 0 && r.flags[id]&rowBase == 0 {
		return id
	}
	return -1
}

// each calls fn for every row in id order; fn returning false stops. Rows
// appended while it runs are not visited.
func (r *Relation) each(fn func([]cell) bool) {
	for id, end := 0, len(r.flags); id < end; id++ {
		if r.flags[id]&rowLive != 0 && !fn(r.row(uint32(id))) {
			return
		}
	}
}

// Tuples returns a snapshot of all tuples, in id order, as views that stay
// valid for the life of the workspace.
func (r *Relation) Tuples() []datalog.Tuple {
	out, i := newTuples(r.n, r.arity), 0
	for id, f := range r.flags {
		if f&rowLive != 0 {
			r.view(out[i], uint32(id))
			i++
		}
	}
	return out
}

// newTuples returns n tuples of the given arity over one backing array.
func newTuples(n, arity int) []datalog.Tuple {
	out := make([]datalog.Tuple, n)
	vals := make([]datalog.Value, n*max(arity, 0))
	for i := range out {
		out[i] = vals[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return out
}

// view fills t with row id's values, their text viewing the intern table.
func (r *Relation) view(t datalog.Tuple, id uint32) {
	for j, c := range r.row(id) {
		t[j] = r.syms.value(c)
	}
}
