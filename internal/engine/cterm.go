package engine

import (
	"fmt"
	"unsafe"

	"secureblox/internal/datalog"
)

// ctermKind discriminates compiled term forms.
type ctermKind uint8

const (
	ctConst ctermKind = iota // literal value
	ctVar                    // variable, addressed by slot
	ctWild                   // anonymous variable
	ctExpr                   // arithmetic expression over compiled terms
)

// cterm is a term compiled against a rule's slot numbering: variables are
// resolved to indexes into a flat frame at compile time, so the innermost
// join loop never touches a map.
type cterm struct {
	kind ctermKind
	val  cell   // ctConst, interned when the rule is compiled
	slot int    // ctVar
	name string // ctVar: source name, for diagnostics
	op   string // ctExpr
	l, r *cterm // ctExpr operands
}

// slotAlloc numbers the variables of one rule (or one constraint, LHS and
// RHS sharing a space) into consecutive frame slots, and interns its
// constants into the workspace's table.
type slotAlloc struct {
	byName map[string]int
	names  []string
	syms   *symtab
}

func newSlotAlloc(syms *symtab) *slotAlloc {
	return &slotAlloc{byName: make(map[string]int), syms: syms}
}

func (sa *slotAlloc) slot(name string) int {
	if s, ok := sa.byName[name]; ok {
		return s
	}
	s := len(sa.names)
	sa.byName[name] = s
	sa.names = append(sa.names, name)
	return s
}

// compileTerm translates a normalized source term (Var/Const/Wildcard or a
// BinExpr over them) into its compiled form.
func (sa *slotAlloc) compileTerm(t datalog.Term) cterm {
	switch tt := t.(type) {
	case datalog.Const:
		return cterm{kind: ctConst, val: sa.syms.cell(tt.Val)}
	case datalog.Var:
		return cterm{kind: ctVar, slot: sa.slot(tt.Name), name: tt.Name}
	case datalog.Wildcard:
		return cterm{kind: ctWild}
	case datalog.BinExpr:
		l := sa.compileTerm(tt.L)
		r := sa.compileTerm(tt.R)
		return cterm{kind: ctExpr, op: tt.Op, l: &l, r: &r}
	default:
		panic(fmt.Sprintf("uncompilable term %T (normalization bug)", t))
	}
}

// compileAtom translates an atom's argument list.
func (sa *slotAlloc) compileAtom(a *datalog.Atom) []cterm {
	out := make([]cterm, len(a.Args))
	for i, t := range a.Args {
		out[i] = sa.compileTerm(t)
	}
	return out
}

// frame is the flat slot array holding one evaluation's variable bindings,
// with a trail for backtracking. A slot holding the zero cell (KindInvalid,
// which no runtime datum can be) is unbound.
type frame struct {
	slots []cell
	trail []int32
	names []string // slot → source name, shared with the compiled rule
}

func newFrame(names []string) *frame {
	return &frame{slots: make([]cell, len(names)), names: names}
}

// slotSpace is the slot numbering of one compiled rule or constraint, with
// the frame its evaluations share: every evaluation, a failed one included,
// undoes its bindings, so one frame serves them all.
type slotSpace struct {
	slotNames []string
	fcache    *frame
}

func (s *slotSpace) seqFrame() *frame {
	if s.fcache == nil {
		s.fcache = newFrame(s.slotNames)
	}
	return s.fcache
}

func (f *frame) mark() int { return len(f.trail) }

func (f *frame) undo(mark int) {
	for i := len(f.trail) - 1; i >= mark; i-- {
		f.slots[f.trail[i]] = cell{}
	}
	f.trail = f.trail[:mark]
}

func (f *frame) bind(slot int, v cell) {
	f.slots[slot] = v
	f.trail = append(f.trail, int32(slot))
}

func (f *frame) get(slot int) (cell, bool) {
	v := f.slots[slot]
	return v, v.kind != datalog.KindInvalid
}

// eval computes the value of a compiled term under a frame. A string + interns
// its result: inside a transaction, so a rollback drops it again.
func (w *Workspace) eval(t *cterm, f *frame) (cell, error) {
	switch t.kind {
	case ctConst:
		return t.val, nil
	case ctVar:
		v, ok := f.get(t.slot)
		if !ok {
			return cell{}, fmt.Errorf("variable %s unbound", t.name)
		}
		return v, nil
	case ctExpr:
		l, err := w.eval(t.l, f)
		if err != nil {
			return cell{}, err
		}
		r, err := w.eval(t.r, f)
		if err != nil {
			return cell{}, err
		}
		if l.kind == datalog.KindString && r.kind == datalog.KindString && t.op == "+" {
			w.concat = append(append(w.concat[:0], w.syms.text(l.sym)...), w.syms.text(r.sym)...)
			return cell{kind: datalog.KindString, sym: w.syms.intern(unsafe.String(unsafe.SliceData(w.concat), len(w.concat)))}, nil
		}
		if l.kind != datalog.KindInt || r.kind != datalog.KindInt {
			return cell{}, fmt.Errorf("arithmetic %s on non-integers %s, %s", t.op, w.syms.value(l), w.syms.value(r))
		}
		a, b := int64(l.bits), int64(r.bits)
		var v int64
		switch t.op {
		case "+":
			v = a + b
		case "-":
			v = a - b
		case "*":
			v = a * b
		case "/":
			if b == 0 {
				return cell{}, fmt.Errorf("division by zero")
			}
			v = a / b
		default:
			return cell{}, fmt.Errorf("unknown operator %s", t.op)
		}
		return cell{kind: datalog.KindInt, bits: uint64(v)}, nil
	default:
		return cell{}, fmt.Errorf("wildcard has no value")
	}
}

// ctermValue returns the value of a compiled term if it is determinable
// without computation (Const or bound Var).
func ctermValue(t *cterm, f *frame) (cell, bool) {
	switch t.kind {
	case ctConst:
		return t.val, true
	case ctVar:
		return f.get(t.slot)
	default:
		return cell{}, false
	}
}

// valueOrEval resolves plain terms directly and arithmetic expressions by
// evaluation; returns ok=false when the term has unbound variables.
func (w *Workspace) valueOrEval(t *cterm, f *frame) (cell, bool) {
	if v, ok := ctermValue(t, f); ok {
		return v, true
	}
	if t.kind == ctExpr {
		v, err := w.eval(t, f)
		if err != nil {
			return cell{}, false
		}
		return v, true
	}
	return cell{}, false
}

// unifyArgs matches a row against compiled argument terms, extending the
// frame. It returns false (leaving any partial bindings for the caller's
// mark/undo) on mismatch.
func unifyArgs(args []cterm, t []cell, f *frame) bool {
	if len(t) != len(args) {
		return false
	}
	for i := range args {
		a := &args[i]
		switch a.kind {
		case ctWild:
			// matches anything
		case ctConst:
			if a.val != t[i] {
				return false
			}
		case ctVar:
			if v, ok := f.get(a.slot); ok {
				if v != t[i] {
					return false
				}
			} else {
				f.bind(a.slot, t[i])
			}
		default:
			return false
		}
	}
	return true
}

// gatherCols appends the runtime values of the given columns of a step's
// argument list to buf (which callers stack-allocate). It reports false if
// any column is not actually bound — a plan/runtime disagreement that the
// caller must survive by falling back to a scan.
func gatherCols(args []cterm, cols []int, f *frame, buf []cell) ([]cell, bool) {
	for _, c := range cols {
		v, ok := ctermValue(&args[c], f)
		if !ok {
			return buf, false
		}
		buf = append(buf, v)
	}
	return buf, true
}
