package engine

import (
	"slices"

	"secureblox/internal/datalog"
)

// hashIndex is the one index type of a relation: a chained hash table from
// the hash of a tuple's projection onto cols to the rows holding it — the
// primary index (the whole tuple), the functional-dependency index (the key
// prefix) and the secondary indexes join plans register (their bound columns)
// alike. Chains are threaded through ents, one link per row, so inserting a
// row allocates nothing but the amortised growth of heads and ents.
type hashIndex struct {
	cols  []int      // projected columns, ascending; nil projects every column
	heads []uint32   // bucket → first row id + 1 (0: empty); power-of-two length, nil until the first row
	ents  []idxEntry // row id → chain link
}

// idxEntry links one row into its bucket's chain. hash keeps the low half of
// the projection hash: it picks the bucket at any table size, and lets a probe
// skip a colliding row without touching its tuple.
type idxEntry struct {
	hash uint32
	next uint32 // next row id + 1 in the chain, 0 at the end
}

// matches reports whether t's projection onto the index columns equals vals —
// the equality verification behind every hash probe.
func (x *hashIndex) matches(t datalog.Tuple, vals []datalog.Value) bool {
	if x.cols == nil {
		return t.Equal(vals)
	}
	for i, c := range x.cols {
		if !t[c].Equal(vals[i]) {
			return false
		}
	}
	return true
}

// bucket returns the chain head that rows hashing to h hang off; the table
// must have been allocated.
func (x *hashIndex) bucket(h uint32) *uint32 { return &x.heads[h&uint32(len(x.heads)-1)] }

// first returns the first row id + 1 of the chain for hash h, 0 if empty.
func (x *hashIndex) first(h uint64) uint32 {
	if len(x.heads) == 0 {
		return 0
	}
	return *x.bucket(uint32(h))
}

// link adds row id (hashing to h) at the head of its chain; n is the row
// count including it, which the table is grown to hold at load factor one.
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
// the relative order of the rows that stay together, so a probe part-way down
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

// unlink removes row id from its chain.
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
	rowLive uint8 = 1 << iota // the tuple is in the relation
	rowBase                   // the tuple was asserted as an EDB fact
	// rowNew: the workspace's current transaction inserted the row, which is
	// therefore on ins. Deleting it does not free the id: the row keeps its
	// tuple, dead, until the transaction's list is dropped, so that an id on
	// ins names one tuple for as long as the list is read.
	rowNew
)

// Relation stores the extent of one predicate as a row store: tuples live in
// a slab addressed by a 32-bit row id (ids of deleted rows are reused), the
// base-fact marker in a parallel slice, and every access path — whole tuple,
// functional key, a join plan's bound columns — is a hashIndex from a
// projection hash to row ids, verified by equality.
//
// Iteration and mutation: Each visits rows in id order (insertion order until
// a deleted row's id is reused), Probe a chain newest first; the orders are a
// function of the operation sequence and no more of a contract than that. A
// callback may insert into the relation it is iterating — recursive rules do —
// and the new row may or may not be visited; it must not delete from it.
//
// Concurrency contract: the read paths (Contains, LookupFn, Probe,
// ProbeExists, Each, Len, Tuples) are safe for any number of concurrent
// readers provided no goroutine writes (Insert, Delete, Reset, EnsureIndex).
// EnsureIndex is additionally restricted to compile time.
type Relation struct {
	schema *Schema
	rows   []datalog.Tuple // row id → tuple (nil while the id is free)
	flags  []uint8         // row id → rowLive | rowBase
	free   []uint32        // deleted row ids awaiting reuse
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

// NewRelation returns an empty relation for the given schema. Slab and hash
// tables are allocated by the first insert, so an unused relation costs its
// header only.
func NewRelation(s *Schema) *Relation {
	r := &Relation{schema: s}
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

// NewTupleSet returns an index-less relation of no fixed arity: a set of
// tuples addressed by hash and verified by equality.
func NewTupleSet() *Relation {
	return NewRelation(&Schema{Arity: -1, KeyArity: -1})
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// find returns the id + 1 of the first row in h's chain of x whose projection
// equals vals, or 0.
func (r *Relation) find(x *hashIndex, h uint64, vals []datalog.Value) uint32 {
	for id := x.first(h); id != 0; id = x.ents[id-1].next {
		if x.ents[id-1].hash == uint32(h) && x.matches(r.rows[id-1], vals) {
			return id
		}
	}
	return 0
}

// rowOf returns the row id of the tuple equal to vals, or -1.
func (r *Relation) rowOf(vals []datalog.Value) int {
	return int(r.find(&r.primary, datalog.HashValues(vals), vals)) - 1
}

// Contains reports whether the tuple is present (one hash, no allocation).
func (r *Relation) Contains(t datalog.Tuple) bool { return r.rowOf(t) >= 0 }

// LookupFn returns the tuple stored under the given functional key values,
// if any.
func (r *Relation) LookupFn(keys []datalog.Value) (datalog.Tuple, bool) {
	if r.fn != nil {
		if id := r.find(r.fn, datalog.HashValues(keys), keys); id != 0 {
			return r.rows[id-1], true
		}
	}
	return nil, false
}

// EnsureIndex registers (or returns) the secondary index over the given
// column set, backfilling it from the current extent. cols must be sorted
// ascending and within the relation's arity.
func (r *Relation) EnsureIndex(cols []int) *hashIndex {
	for _, x := range r.idx[1:] {
		if x != r.fn && slices.Equal(x.cols, cols) {
			return x
		}
	}
	x := &hashIndex{cols: slices.Clone(cols), ents: make([]idxEntry, len(r.rows))}
	r.idx = append(r.idx, x)
	n := 0
	for id, t := range r.rows {
		if r.flags[id]&rowLive != 0 {
			n++
			x.link(uint32(id), t.HashCols(cols), n)
		}
	}
	return x
}

// Probe iterates the tuples whose projection onto x.cols equals vals
// (vals[i] corresponds to column x.cols[i]). fn returning false stops.
func (r *Relation) Probe(x *hashIndex, vals []datalog.Value, fn func(datalog.Tuple) bool) {
	h := datalog.HashValues(vals)
	// The link is read after fn returns: fn may insert, which can split the
	// chain, and only a row with the probed hash — in the probed bucket at
	// every table size — is a safe place to carry on from.
	for id := x.first(h); id != 0; id = x.ents[id-1].next {
		if x.ents[id-1].hash != uint32(h) {
			continue
		}
		if t := r.rows[id-1]; x.matches(t, vals) && !fn(t) {
			return
		}
	}
}

// ProbeExists reports whether any tuple matches the projection — the
// partially bound negation check.
func (r *Relation) ProbeExists(x *hashIndex, vals []datalog.Value) bool {
	return r.find(x, datalog.HashValues(vals), vals) != 0
}

// InsertResult describes the outcome of an insert.
type InsertResult int

// Insert outcomes.
const (
	InsertedNew        InsertResult = iota // tuple added
	InsertedDup                            // tuple already present (no-op)
	InsertedFDConflict                     // functional-dependency violation
)

// Insert adds a tuple. For functional predicates, inserting a different
// value under an existing key reports InsertedFDConflict and leaves the
// relation unchanged (the caller decides whether that aborts the
// transaction or, for aggregate-owned predicates, triggers replacement).
// The relation keeps t itself, not a copy.
func (r *Relation) Insert(t datalog.Tuple, isBase bool) InsertResult {
	h := t.Hash()
	if id := r.find(&r.primary, h, t); id != 0 {
		if isBase {
			r.flags[id-1] |= rowBase
		}
		return InsertedDup
	}
	flags := rowLive
	if isBase {
		flags |= rowBase
	}
	if _, ok := r.add(t, h, flags); !ok {
		return InsertedFDConflict
	}
	return InsertedNew
}

// add stores t, which hashes to h and which the caller's probe of the primary
// index found absent, and returns its row id — or false, with nothing stored,
// when another tuple holds t's functional key.
func (r *Relation) add(t datalog.Tuple, h uint64, flags uint8) (uint32, bool) {
	var kh uint64
	if r.fn != nil {
		ka := r.schema.KeyArity
		kh = t.HashPrefix(ka)
		if r.find(r.fn, kh, t[:ka]) != 0 {
			return 0, false
		}
	}
	var id uint32
	if k := len(r.free); k > 0 {
		id, r.free = r.free[k-1], r.free[:k-1]
		r.rows[id], r.flags[id] = t, flags
	} else {
		id = uint32(len(r.rows))
		r.rows, r.flags = append(r.rows, t), append(r.flags, flags)
	}
	r.n++
	r.primary.link(id, h, r.n)
	rest := r.idx[1:]
	if r.fn != nil {
		r.fn.link(id, kh, r.n)
		rest = rest[1:]
	}
	for _, x := range rest {
		x.link(id, t.HashCols(x.cols), r.n)
	}
	return id, true
}

// Delete removes a tuple if present, returning whether it was removed.
func (r *Relation) Delete(t datalog.Tuple) bool {
	row := r.rowOf(t)
	if row >= 0 {
		r.remove(uint32(row))
	}
	return row >= 0
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
// on no transaction's list (rowNew) — gives up its tuple, and its id is free.
func (r *Relation) clear(id uint32, flags uint8) {
	if r.flags[id] &^= flags; r.flags[id] == 0 {
		r.rows[id] = nil
		r.free = append(r.free, id)
	}
}

// Reset empties the relation, keeping its indexes registered and the storage
// it has grown for the next fill.
func (r *Relation) Reset() {
	clear(r.rows)
	r.rows, r.flags, r.free, r.n = r.rows[:0], r.flags[:0], r.free[:0], 0
	for _, x := range r.idx {
		clear(x.heads)
		x.ents = x.ents[:0]
	}
}

// derived returns the row holding vals if it is present and not an EDB fact —
// what a retraction may over-delete — in one lookup; -1 otherwise.
func (r *Relation) derived(vals []datalog.Value) int {
	if id := r.rowOf(vals); id >= 0 && r.flags[id]&rowBase == 0 {
		return id
	}
	return -1
}

// Each calls fn for every tuple in row-id order; fn returning false stops.
// Rows appended while it runs are not visited.
func (r *Relation) Each(fn func(datalog.Tuple) bool) {
	for id, end := 0, len(r.rows); id < end; id++ {
		if r.flags[id]&rowLive != 0 && !fn(r.rows[id]) {
			return
		}
	}
}

// Tuples returns a snapshot slice of all tuples, in Each's order.
func (r *Relation) Tuples() []datalog.Tuple {
	out := make([]datalog.Tuple, 0, r.n)
	for id, t := range r.rows {
		if r.flags[id]&rowLive != 0 {
			out = append(out, t)
		}
	}
	return out
}
