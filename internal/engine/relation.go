package engine

import (
	"strconv"
	"strings"

	"secureblox/internal/datalog"
)

// tupleEntry is one stored tuple plus its base-fact marker (asserted facts
// survive DRed rederivation). Entries sharing a 64-bit hash live in the same
// bucket and are disambiguated by Tuple.Equal.
type tupleEntry struct {
	t    datalog.Tuple
	base bool
}

// colIndex is a secondary hash index over a fixed column set: the hash of a
// tuple's projection onto cols addresses the bucket holding all tuples with
// that projection (hash collisions included — probes re-verify equality).
// Indexes are registered at rule-compile time from each join step's
// bound-column signature and maintained incrementally on insert/delete.
type colIndex struct {
	cols []int
	m    map[uint64][]datalog.Tuple
}

// colKey canonicalizes a column set for index registration. cols must be
// sorted ascending.
func colKey(cols []int) string {
	var sb strings.Builder
	for i, c := range cols {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(c))
	}
	return sb.String()
}

// Relation stores the extent of one predicate: tuples addressed by 64-bit
// hash (collision buckets verified by equality), a functional-dependency
// index for p[k]=v predicates, and any number of secondary hash indexes over
// column sets requested by compiled join plans.
//
// Concurrency contract: the read paths (Contains, ContainsVals, LookupFn,
// Probe, ProbeExists, Each, Len, Tuples) are safe for any number of
// concurrent readers provided no goroutine writes. The parallel fixpoint
// relies on this — workers only read during a wave, and all writes (Insert,
// Delete, EnsureIndex) happen on the single committing goroutine between
// waves. EnsureIndex is additionally restricted to compile time.
type Relation struct {
	schema  *Schema
	tuples  map[uint64][]tupleEntry
	n       int
	fnIdx   map[uint64][]datalog.Tuple // hash of key prefix → full tuples
	indexes map[string]*colIndex
}

// NewRelation returns an empty relation for the given schema.
func NewRelation(s *Schema) *Relation {
	r := &Relation{
		schema:  s,
		tuples:  make(map[uint64][]tupleEntry),
		indexes: make(map[string]*colIndex),
	}
	if s.Functional() {
		r.fnIdx = make(map[uint64][]datalog.Tuple)
	}
	return r
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// lookupBucket returns the entry index of t in its bucket, or -1.
func lookupBucket(bucket []tupleEntry, t datalog.Tuple) int {
	for i := range bucket {
		if bucket[i].t.Equal(t) {
			return i
		}
	}
	return -1
}

// Contains reports whether the tuple is present (one hash, no allocation).
func (r *Relation) Contains(t datalog.Tuple) bool {
	return lookupBucket(r.tuples[t.Hash()], t) >= 0
}

// ContainsVals reports whether the relation holds exactly the given value
// sequence — the ground-membership fast path used by fully bound matches and
// negations.
func (r *Relation) ContainsVals(vals []datalog.Value) bool {
	for _, e := range r.tuples[datalog.HashValues(vals)] {
		if len(e.t) != len(vals) {
			continue
		}
		match := true
		for i := range vals {
			if !e.t[i].Equal(vals[i]) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// LookupFn returns the value tuple stored under the given functional key
// values, if any.
func (r *Relation) LookupFn(keys []datalog.Value) (datalog.Tuple, bool) {
	if r.fnIdx == nil {
		return nil, false
	}
	for _, t := range r.fnIdx[datalog.HashValues(keys)] {
		match := true
		for i, k := range keys {
			if !t[i].Equal(k) {
				match = false
				break
			}
		}
		if match {
			return t, true
		}
	}
	return nil, false
}

// EnsureIndex registers (or returns) the secondary index over the given
// column set, backfilling it from the current extent. cols must be sorted
// ascending and within the relation's arity.
func (r *Relation) EnsureIndex(cols []int) *colIndex {
	key := colKey(cols)
	if idx, ok := r.indexes[key]; ok {
		return idx
	}
	idx := &colIndex{cols: append([]int(nil), cols...), m: make(map[uint64][]datalog.Tuple)}
	r.indexes[key] = idx
	for _, bucket := range r.tuples {
		for _, e := range bucket {
			h := e.t.HashCols(idx.cols)
			idx.m[h] = append(idx.m[h], e.t)
		}
	}
	return idx
}

// matchesCols reports whether t's projection onto cols equals vals — the
// equality verification behind every hash-bucket probe.
func matchesCols(t datalog.Tuple, cols []int, vals []datalog.Value) bool {
	for i, c := range cols {
		if !t[c].Equal(vals[i]) {
			return false
		}
	}
	return true
}

// Probe iterates the tuples whose projection onto idx.cols equals vals
// (vals[i] corresponds to column idx.cols[i]). fn returning false stops.
func (r *Relation) Probe(idx *colIndex, vals []datalog.Value, fn func(datalog.Tuple) bool) {
	for _, t := range idx.m[datalog.HashValues(vals)] {
		if matchesCols(t, idx.cols, vals) && !fn(t) {
			return
		}
	}
}

// ProbeExists reports whether any tuple matches the projection — the
// partially bound negation check.
func (r *Relation) ProbeExists(idx *colIndex, vals []datalog.Value) bool {
	found := false
	r.Probe(idx, vals, func(datalog.Tuple) bool {
		found = true
		return false
	})
	return found
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
func (r *Relation) Insert(t datalog.Tuple, isBase bool) InsertResult {
	h := t.Hash()
	bucket := r.tuples[h]
	if i := lookupBucket(bucket, t); i >= 0 {
		if isBase {
			bucket[i].base = true
		}
		return InsertedDup
	}
	if r.schema.Functional() {
		ka := r.schema.KeyArity
		if _, exists := r.LookupFn(t[:ka]); exists {
			return InsertedFDConflict
		}
		kh := t.HashPrefix(ka)
		r.fnIdx[kh] = append(r.fnIdx[kh], t)
	}
	r.tuples[h] = append(bucket, tupleEntry{t: t, base: isBase})
	r.n++
	for _, idx := range r.indexes {
		ih := t.HashCols(idx.cols)
		idx.m[ih] = append(idx.m[ih], t)
	}
	return InsertedNew
}

// removeTuple deletes t from a hash-bucket map, comparing by Equal.
func removeTuple(m map[uint64][]datalog.Tuple, h uint64, t datalog.Tuple) {
	bucket := m[h]
	for i, bt := range bucket {
		if bt.Equal(t) {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			if len(bucket) == 0 {
				delete(m, h)
			} else {
				m[h] = bucket
			}
			return
		}
	}
}

// Delete removes a tuple if present, returning whether it was removed. All
// secondary indexes are maintained.
func (r *Relation) Delete(t datalog.Tuple) bool {
	h := t.Hash()
	bucket := r.tuples[h]
	i := lookupBucket(bucket, t)
	if i < 0 {
		return false
	}
	old := bucket[i].t
	bucket[i] = bucket[len(bucket)-1]
	bucket = bucket[:len(bucket)-1]
	if len(bucket) == 0 {
		delete(r.tuples, h)
	} else {
		r.tuples[h] = bucket
	}
	r.n--
	if r.schema.Functional() {
		removeTuple(r.fnIdx, old.HashPrefix(r.schema.KeyArity), old)
	}
	for _, idx := range r.indexes {
		removeTuple(idx.m, old.HashCols(idx.cols), old)
	}
	return true
}

// IsBase reports whether the tuple was asserted as an EDB fact.
func (r *Relation) IsBase(t datalog.Tuple) bool {
	bucket := r.tuples[t.Hash()]
	if i := lookupBucket(bucket, t); i >= 0 {
		return bucket[i].base
	}
	return false
}

// IsDerived reports whether the tuple is present and not an EDB fact — what
// a retraction may over-delete — in one lookup.
func (r *Relation) IsDerived(t datalog.Tuple) bool {
	bucket := r.tuples[t.Hash()]
	i := lookupBucket(bucket, t)
	return i >= 0 && !bucket[i].base
}

// Each calls fn for every tuple; fn returning false stops iteration.
func (r *Relation) Each(fn func(datalog.Tuple) bool) {
	for _, bucket := range r.tuples {
		for _, e := range bucket {
			if !fn(e.t) {
				return
			}
		}
	}
}

// Tuples returns a snapshot slice of all tuples (order unspecified).
func (r *Relation) Tuples() []datalog.Tuple {
	out := make([]datalog.Tuple, 0, r.n)
	r.Each(func(t datalog.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}
