package engine

import (
	"fmt"
	"hash/maphash"
	"slices"
	"unsafe"

	"secureblox/internal/datalog"
)

// cell is the engine's storage encoding of one datalog.Value: 12 bytes and no
// pointer, so relation pages, frames and probe keys are memory the collector
// never scans. The kind sits in the top four bits of ks, above the symbol;
// ints, bools and entity ids live in lo and hi, the low and high halves of
// bits. The text of a string, name, node, principal, byte string or entity
// type is sym, a symbol of the workspace's intern table, so equality and
// hashing are integer operations; only ordered comparison and string + read
// the text. The zero cell, like the zero Value, is invalid: no stored datum,
// an unbound frame slot. The struct has no padding, so == compares cells.
type cell struct {
	ks     uint32 // kind<<symBits | sym
	lo, hi uint32 // bits
}

// unsafe.Sizeof(cell{}) == 12, asserted at compile time (one of the two array
// lengths underflows otherwise): pages, frames and probe keys are sized by it.
var (
	_ [unsafe.Sizeof(cell{}) - 12]struct{}
	_ [12 - unsafe.Sizeof(cell{})]struct{}
)

// symBits is the width of a cell's symbol: a workspace interns at most
// 1<<symBits texts. The kind takes the four bits above it.
const symBits = 28

// KindEntity, the last of the nine kinds, fits in the four bits above the
// symbol (the array length underflows otherwise).
var _ [1<<(32-symBits) - 1 - datalog.KindEntity]struct{}

// mkCell is the cell of kind k with symbol sym and bits.
func mkCell(k datalog.Kind, sym uint32, bits uint64) cell {
	return cell{ks: uint32(k)<<symBits | sym, lo: uint32(bits), hi: uint32(bits >> 32)}
}

func (c cell) kind() datalog.Kind { return datalog.Kind(c.ks >> symBits) }
func (c cell) sym() uint32        { return c.ks & (1<<symBits - 1) }
func (c cell) bits() uint64       { return uint64(c.hi)<<32 | uint64(c.lo) }

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

// fold folds c into the running hash h: the kind-and-symbol word, then bits.
func (c cell) fold(h uint64) uint64 {
	h = (h ^ uint64(c.ks)) * hashPrime
	return (h ^ c.bits()) * hashPrime
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
// held once, as a symbol. Text new while a transaction is open is a view
// symbol — of the caller's string, or of a copy on the stack (push) for text
// the engine computes — until a row stored to outlive the transaction copies
// it into the arena (keep), or the transaction ends and it goes (end), its
// number free for the next symbol. Other text, the program's constants, goes
// to the arena at once: pages of nothing but bytes, only appended to, so a
// string viewing one stays valid while anything references it.
type symtab struct {
	idx   hashIndex // text hash → symbols, verified by text
	spans []span    // symbol → where its text lives
	pages [][]byte  // the arena; the last page is the one being filled
	free  []uint32  // numbers of dropped view symbols, for the next symbols
	views []viewSym // the transaction's view symbols, in the order they came
	open  bool      // a transaction is open
	stack [][]byte  // computed views' bytes in stack[:top+1], and empty pages
	top   int
}

// span locates one symbol's text: in the arena, or for a view symbol
// (page viewPage) at views[off].
type span struct{ page, off, n uint32 }

// viewPage marks a view symbol's span.
const viewPage = ^uint32(0)

// viewSym is one view symbol and the text it views.
type viewSym struct {
	sym  uint32
	text string
}

// Arena page sizes in bytes: small first, for the many workspaces with a
// small vocabulary; capped, so a page's unused tail stays small. A text longer
// than the cap gets a page of its own size.
const minArenaPage, maxArenaPage = 1 << 10, 1 << 16

// symMark is where the table stood: restoring it drops every later symbol.
type symMark struct{ syms, free, pages, fill int }

// text returns sym's text as a view of the arena, or of what a view symbol
// views.
func (s *symtab) text(sym uint32) string {
	sp := s.spans[sym]
	switch {
	case sp.n == 0:
		return ""
	case sp.page == viewPage:
		return s.views[sp.off].text
	}
	return unsafe.String(&s.pages[sp.page][sp.off], sp.n)
}

// find returns the symbol + 1 of text, which hashes to h, or 0.
func (s *symtab) find(text string, h uint64) uint32 {
	for id := s.idx.first(h); id != 0; {
		e := s.idx.at(id - 1)
		if e.hash == uint32(h) && s.text(id-1) == text {
			return id
		}
		id = e.next
	}
	return 0
}

// lookup returns text's symbol, if text has one; it never interns.
func (s *symtab) lookup(text string) (uint32, bool) {
	id := s.find(text, maphash.String(symSeed, text))
	return id - 1, id != 0
}

// intern returns text's symbol, making it one if text is new. Known text that
// push just copied goes back to the stack. A text that would be symbol
// symLimit is refused with errSymbolLimit.
func (s *symtab) intern(text string) (uint32, error) {
	h := maphash.String(symSeed, text)
	if id := s.find(text, h); id != 0 {
		s.pop(text)
		return id - 1, nil
	}
	var sym uint32
	if k := len(s.free); k > 0 {
		sym, s.free = s.free[k-1], s.free[:k-1]
	} else {
		var err error
		if sym, err = newSym(len(s.spans)); err != nil {
			return 0, err
		}
		s.spans = append(s.spans, span{})
	}
	if s.open && text != "" {
		s.spans[sym] = span{page: viewPage, off: uint32(len(s.views)), n: uint32(len(text))}
		s.views = append(s.views, viewSym{sym, text})
	} else {
		s.spans[sym] = s.store(text)
	}
	s.idx.link(sym, h, len(s.spans))
	return sym, nil
}

// push copies a and b, end to end, onto the stack, for intern: text the engine
// computes, which it does only inside a transaction. The pages never move and
// serve every transaction; they double from minArenaPage up to maxArenaPage.
func (s *symtab) push(a, b string) string {
	n := len(a) + len(b)
	if len(s.stack) > 0 && cap(s.stack[s.top])-len(s.stack[s.top]) < n {
		s.top++
	}
	if s.top == len(s.stack) || cap(s.stack[s.top])-len(s.stack[s.top]) < n {
		s.stack = append(s.stack[:s.top], make([]byte, 0, max(n, min(minArenaPage<<s.top, maxArenaPage))))
	}
	p := s.stack[s.top]
	s.stack[s.top] = append(append(p, a...), b...)
	return unsafe.String(unsafe.SliceData(s.stack[s.top][len(p):]), n)
}

// pop gives text's bytes back to the stack if they are its newest.
func (s *symtab) pop(text string) {
	if len(s.stack) == 0 || text == "" {
		return
	}
	p := s.stack[s.top]
	if len(text) > len(p) || unsafe.StringData(text) != &p[len(p)-len(text)] {
		return
	}
	s.stack[s.top] = p[:len(p)-len(text)]
	for s.top > 0 && len(s.stack[s.top]) == 0 {
		s.top--
	}
}

// keep copies the text of every view symbol cs names into the arena: a row
// that holds them is to outlive the transaction. The newest views, once kept,
// give their stack bytes back.
func (s *symtab) keep(cs []cell) {
	for _, c := range cs {
		if !hasText(c.kind()) {
			continue
		}
		if sp := &s.spans[c.sym()]; sp.page == viewPage {
			*sp = s.store(s.views[sp.off].text)
		}
	}
	for n := len(s.views) - 1; n >= 0 && s.spans[s.views[n].sym].page != viewPage; n-- {
		s.pop(s.views[n].text)
		s.views = s.views[:n]
	}
}

// end ends the transaction: a view symbol keep has not copied goes, its number
// free for the next symbol, no symbol views anything any more, and the stack
// is empty.
func (s *symtab) end() {
	for _, v := range s.views {
		if s.spans[v.sym].page == viewPage {
			s.idx.unlink(v.sym)
			s.spans[v.sym] = span{}
			s.free = append(s.free, v.sym)
		}
	}
	clear(s.views) // what they viewed need not stay alive
	s.views, s.top, s.open = s.views[:0], 0, false
	for i := range s.stack {
		s.stack[i] = s.stack[i][:0]
	}
}

// symLimit is how many texts a workspace interns: every symbol a cell's
// symBits can number. A variable only so a test can reach it.
var symLimit = 1 << symBits

// errSymbolLimit refuses a text past symLimit, so that no symbol spills into
// the kind above it. Inside a transaction it is a violation: the transaction
// rolls back, and with it every text it interned.
var errSymbolLimit = fmt.Errorf("engine: a workspace interns at most %d texts (2^%d symbols)", 1<<symBits, symBits)

// newSym numbers the n-th symbol, or refuses it past symLimit.
func newSym(n int) (uint32, error) {
	if n >= symLimit {
		return 0, errSymbolLimit
	}
	return uint32(n), nil
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

// clone returns a table holding s's symbols, numbered as in s, that interns on
// its own: the spans, the free numbers and the index are copied, and the arena
// pages are shared, each capped at its length, so the copy appends to pages of
// its own and neither table ever writes what the other reads. s holds no view
// symbol.
func (s *symtab) clone() symtab {
	pages := make([][]byte, len(s.pages))
	for i, p := range s.pages {
		pages[i] = p[:len(p):len(p)]
	}
	links := make([][]idxEntry, len(s.idx.links))
	for i, p := range s.idx.links {
		links[i] = slices.Clone(p)
	}
	return symtab{
		idx:   hashIndex{heads: slices.Clone(s.idx.heads), links: links},
		spans: slices.Clone(s.spans),
		pages: pages,
		free:  slices.Clone(s.free),
	}
}

func (s *symtab) mark() symMark {
	m := symMark{syms: len(s.spans), free: len(s.free), pages: len(s.pages)}
	if m.pages > 0 {
		m.fill = len(s.pages[m.pages-1])
	}
	return m
}

// restore drops every symbol interned since m — the ones that took a free
// number, which are again free, and the ones numbered past m's — and gives
// their arena bytes back. Their links stay allocated, for the next symbols of
// those numbers. No symbol is freed between a mark and its restore: a
// transaction frees its view symbols only once it stands, and one restored
// is over.
func (s *symtab) restore(m symMark) {
	for _, sym := range s.free[len(s.free):m.free] {
		s.idx.unlink(sym)
		s.spans[sym] = span{}
	}
	s.free = s.free[:m.free]
	for sym := len(s.spans) - 1; sym >= m.syms; sym-- {
		s.idx.unlink(uint32(sym))
	}
	s.spans = s.spans[:m.syms]
	clear(s.views) // gone with the rest, so end has none to drop
	s.views = s.views[:0]
	s.end()
	clear(s.pages[m.pages:])
	s.pages = s.pages[:m.pages]
	if m.pages > 0 {
		s.pages[m.pages-1] = s.pages[m.pages-1][:m.fill]
	}
}

// cell encodes v, interning its text: the write paths — facts, compiled
// constants.
func (s *symtab) cell(v datalog.Value) (cell, error) {
	if !hasText(v.Kind) {
		return encode(v, 0), nil
	}
	sym, err := s.intern(v.Str)
	return encode(v, sym), err
}

// encode is v's cell, given the symbol of its text.
func encode(v datalog.Value, sym uint32) cell {
	var bits uint64
	if !hasText(v.Kind) {
		sym = 0
	}
	if hasBits(v.Kind) {
		bits = uint64(v.Int)
	}
	return mkCell(v.Kind, sym, bits)
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
func (s *symtab) cells(buf []cell, t datalog.Tuple) ([]cell, error) {
	for _, v := range t {
		c, err := s.cell(v)
		if err != nil {
			return buf, err
		}
		buf = append(buf, c)
	}
	return buf, nil
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
	v := datalog.Value{Kind: c.kind()}
	if hasText(v.Kind) {
		v.Str = s.text(c.sym())
	}
	if hasBits(v.Kind) {
		v.Int = int64(c.bits())
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
