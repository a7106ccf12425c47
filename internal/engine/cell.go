package engine

import (
	"hash/maphash"
	"unsafe"

	"secureblox/internal/datalog"
)

// cell is the engine's storage encoding of one datalog.Value: 16 bytes and no
// pointer, so relation pages, frames and probe keys are memory the collector
// never scans. Ints, bools and entity ids live in bits. The text of a string,
// name, node, principal, byte string or entity type is sym, a symbol of the
// workspace's intern table, so equality and hashing are integer operations;
// only ordered comparison and string + read the text. The zero cell, like the
// zero Value, is invalid: no stored datum, an unbound frame slot.
type cell struct {
	kind datalog.Kind
	sym  uint32
	bits uint64
}

// unsafe.Sizeof(cell{}) == 16, asserted at compile time (one of the two array
// lengths underflows otherwise): pages, frames and probe keys are sized by it.
var (
	_ [unsafe.Sizeof(cell{}) - 16]struct{}
	_ [16 - unsafe.Sizeof(cell{})]struct{}
)

// hasText reports whether values of kind k carry text, and so a symbol.
func hasText(k datalog.Kind) bool {
	switch k {
	case datalog.KindString, datalog.KindBytes, datalog.KindName, datalog.KindNode, datalog.KindPrin, datalog.KindEntity:
		return true
	}
	return false
}

// hasBits reports whether values of kind k carry Value.Int, in bits.
func hasBits(k datalog.Kind) bool { return !hasText(k) || k == datalog.KindEntity }

const (
	hashOffset = 14695981039346656037 // FNV-1a offset basis, the seed of every cell hash
	hashPrime  = 1099511628211        // FNV-1a 64-bit prime, used to fold fields
)

// fold folds c into the running hash h: kind and symbol as one word, then bits.
func (c cell) fold(h uint64) uint64 {
	h = (h ^ (uint64(c.sym)<<8 | uint64(c.kind))) * hashPrime
	return (h ^ c.bits) * hashPrime
}

// finish mixes every bit of a folded hash into the low half, which is the part
// indexes keep: a multiply only carries low input bits upwards. (MurmurHash3's
// 64-bit finalizer.)
func finish(h uint64) uint64 {
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// hashCells hashes a cell sequence — a whole row, a functional key, a probe key.
func hashCells(cs []cell) uint64 {
	h := uint64(hashOffset)
	for _, c := range cs {
		h = c.fold(h)
	}
	return finish(h)
}

// hashCols hashes row's projection onto cols exactly as hashCells hashes the
// projected cells, so probe keys address the buckets stored rows sit in.
func hashCols(row []cell, cols []int) uint64 {
	h := uint64(hashOffset)
	for _, c := range cols {
		h = row[c].fold(h)
	}
	return finish(h)
}

// symSeed keys the hashing of symbol text for this process.
var symSeed = maphash.MakeSeed()

// symtab is a workspace's intern table: every distinct text its cells name is
// stored once, as a symbol numbered in interning order, in arena pages that
// hold nothing but bytes. A page is only appended to and never moves, so a
// string viewing a symbol's text stays valid while anything references it.
//
// Symbols are only ever dropped by restore, back to a mark taken before a
// transaction: what a rolled-back transaction interned goes with it. A
// committed symbol lives as long as the workspace, whether or not a row still
// names it, so the table is bounded by the text ever committed.
type symtab struct {
	idx   hashIndex // text hash → symbols, verified by text
	spans []span    // symbol → where its text lives
	pages [][]byte  // the arena; the last page is the one being filled
}

// span locates one symbol's text in the arena.
type span struct{ page, off, n uint32 }

// Arena page sizes in bytes: small first, for the many workspaces with a
// small vocabulary; capped, so a page's unused tail stays small. A text longer
// than the cap gets a page of its own size.
const minArenaPage, maxArenaPage = 1 << 10, 1 << 16

// symMark is where the table stood: restoring it drops every later symbol.
type symMark struct{ syms, pages, fill int }

// text returns sym's text as a view of the arena.
func (s *symtab) text(sym uint32) string {
	sp := s.spans[sym]
	if sp.n == 0 {
		return ""
	}
	return unsafe.String(&s.pages[sp.page][sp.off], sp.n)
}

// find returns the symbol + 1 of text, which hashes to h, or 0.
func (s *symtab) find(text string, h uint64) uint32 {
	for id := s.idx.first(h); id != 0; id = s.idx.ents[id-1].next {
		if s.idx.ents[id-1].hash == uint32(h) && s.text(id-1) == text {
			return id
		}
	}
	return 0
}

// lookup returns text's symbol, if text has one; it never interns.
func (s *symtab) lookup(text string) (uint32, bool) {
	id := s.find(text, maphash.String(symSeed, text))
	return id - 1, id != 0
}

// intern returns text's symbol, copying text into the arena if it is new.
func (s *symtab) intern(text string) uint32 {
	h := maphash.String(symSeed, text)
	if id := s.find(text, h); id != 0 {
		return id - 1
	}
	sym := uint32(len(s.spans))
	s.spans = append(s.spans, s.store(text))
	s.idx.link(sym, h, len(s.spans))
	return sym
}

// store appends text to the arena.
func (s *symtab) store(text string) span {
	if len(text) == 0 {
		return span{}
	}
	last := len(s.pages) - 1
	if last < 0 || cap(s.pages[last])-len(s.pages[last]) < len(text) {
		size := minArenaPage
		if last >= 0 {
			size = min(2*cap(s.pages[last]), maxArenaPage)
		}
		s.pages = append(s.pages, make([]byte, 0, max(size, len(text))))
		last++
	}
	p := s.pages[last]
	s.pages[last] = append(p, text...)
	return span{page: uint32(last), off: uint32(len(p)), n: uint32(len(text))}
}

func (s *symtab) mark() symMark {
	m := symMark{syms: len(s.spans), pages: len(s.pages)}
	if m.pages > 0 {
		m.fill = len(s.pages[m.pages-1])
	}
	return m
}

// restore drops every symbol interned since m, newest first — each is then
// the head of its chain — and gives their arena bytes back.
func (s *symtab) restore(m symMark) {
	for sym := len(s.spans) - 1; sym >= m.syms; sym-- {
		s.idx.unlink(uint32(sym))
	}
	s.spans, s.idx.ents = s.spans[:m.syms], s.idx.ents[:m.syms]
	clear(s.pages[m.pages:])
	s.pages = s.pages[:m.pages]
	if m.pages > 0 {
		s.pages[m.pages-1] = s.pages[m.pages-1][:m.fill]
	}
}

// cell encodes v, interning its text: the write paths — facts, compiled
// constants, UDF results.
func (s *symtab) cell(v datalog.Value) cell {
	var sym uint32
	if hasText(v.Kind) {
		sym = s.intern(v.Str)
	}
	return encode(v, sym)
}

// encode is v's cell, given the symbol of its text.
func encode(v datalog.Value, sym uint32) cell {
	c := cell{kind: v.Kind}
	if hasText(v.Kind) {
		c.sym = sym
	}
	if hasBits(v.Kind) {
		c.bits = uint64(v.Int)
	}
	return c
}

// lookupCell encodes v without interning — the read paths. A text the table
// has never seen reports false: no cell can hold it.
func (s *symtab) lookupCell(v datalog.Value) (cell, bool) {
	if !hasText(v.Kind) {
		return encode(v, 0), true
	}
	sym, ok := s.lookup(v.Str)
	return encode(v, sym), ok
}

// cells appends the encoding of t to buf, interning.
func (s *symtab) cells(buf []cell, t datalog.Tuple) []cell {
	for _, v := range t {
		buf = append(buf, s.cell(v))
	}
	return buf
}

// lookupCells appends the encoding of t to buf without interning; false if
// some text of t has no symbol.
func (s *symtab) lookupCells(buf []cell, t datalog.Tuple) ([]cell, bool) {
	for _, v := range t {
		c, ok := s.lookupCell(v)
		if !ok {
			return buf, false
		}
		buf = append(buf, c)
	}
	return buf, true
}

// value returns c as a Value whose text is a view of the arena: no copy.
func (s *symtab) value(c cell) datalog.Value {
	v := datalog.Value{Kind: c.kind}
	if hasText(c.kind) {
		v.Str = s.text(c.sym)
	}
	if hasBits(c.kind) {
		v.Int = int64(c.bits)
	}
	return v
}

// tuple returns row as a tuple of views.
func (s *symtab) tuple(row []cell) datalog.Tuple {
	t := make(datalog.Tuple, len(row))
	for i, c := range row {
		t[i] = s.value(c)
	}
	return t
}
