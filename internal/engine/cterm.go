package engine

import (
	"fmt"

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
	val  datalog.Value // ctConst
	slot int           // ctVar
	name string        // ctVar: source name, for diagnostics
	op   string        // ctExpr
	l, r *cterm        // ctExpr operands
}

// slotAlloc numbers the variables of one rule (or one constraint, LHS and
// RHS sharing a space) into consecutive frame slots.
type slotAlloc struct {
	byName map[string]int
	names  []string
}

func newSlotAlloc() *slotAlloc {
	return &slotAlloc{byName: make(map[string]int)}
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
		return cterm{kind: ctConst, val: tt.Val}
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
// with a trail for backtracking. A slot holding the zero Value (KindInvalid,
// which no runtime datum can be) is unbound.
type frame struct {
	slots []datalog.Value
	trail []int32
	names []string // slot → source name, shared with the compiled rule
}

func newFrame(names []string) *frame {
	return &frame{slots: make([]datalog.Value, len(names)), names: names}
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
		f.slots[f.trail[i]] = datalog.Value{}
	}
	f.trail = f.trail[:mark]
}

func (f *frame) bind(slot int, v datalog.Value) {
	f.slots[slot] = v
	f.trail = append(f.trail, int32(slot))
}

func (f *frame) get(slot int) (datalog.Value, bool) {
	v := f.slots[slot]
	return v, v.Kind != datalog.KindInvalid
}

// evalCterm computes the value of a compiled term under a frame.
func evalCterm(t *cterm, f *frame) (datalog.Value, error) {
	switch t.kind {
	case ctConst:
		return t.val, nil
	case ctVar:
		v, ok := f.get(t.slot)
		if !ok {
			return datalog.Value{}, fmt.Errorf("variable %s unbound", t.name)
		}
		return v, nil
	case ctExpr:
		l, err := evalCterm(t.l, f)
		if err != nil {
			return datalog.Value{}, err
		}
		r, err := evalCterm(t.r, f)
		if err != nil {
			return datalog.Value{}, err
		}
		if l.Kind == datalog.KindString && r.Kind == datalog.KindString && t.op == "+" {
			return datalog.String_(l.Str + r.Str), nil
		}
		if l.Kind != datalog.KindInt || r.Kind != datalog.KindInt {
			return datalog.Value{}, fmt.Errorf("arithmetic %s on non-integers %s, %s", t.op, l, r)
		}
		switch t.op {
		case "+":
			return datalog.Int64(l.Int + r.Int), nil
		case "-":
			return datalog.Int64(l.Int - r.Int), nil
		case "*":
			return datalog.Int64(l.Int * r.Int), nil
		case "/":
			if r.Int == 0 {
				return datalog.Value{}, fmt.Errorf("division by zero")
			}
			return datalog.Int64(l.Int / r.Int), nil
		default:
			return datalog.Value{}, fmt.Errorf("unknown operator %s", t.op)
		}
	default:
		return datalog.Value{}, fmt.Errorf("wildcard has no value")
	}
}

// ctermValue returns the value of a compiled term if it is determinable
// without computation (Const or bound Var).
func ctermValue(t *cterm, f *frame) (datalog.Value, bool) {
	switch t.kind {
	case ctConst:
		return t.val, true
	case ctVar:
		return f.get(t.slot)
	default:
		return datalog.Value{}, false
	}
}

// ctermValueOrEval resolves plain terms directly and arithmetic expressions
// by evaluation; returns ok=false when the term has unbound variables.
func ctermValueOrEval(t *cterm, f *frame) (datalog.Value, bool) {
	if v, ok := ctermValue(t, f); ok {
		return v, true
	}
	if t.kind == ctExpr {
		v, err := evalCterm(t, f)
		if err != nil {
			return datalog.Value{}, false
		}
		return v, true
	}
	return datalog.Value{}, false
}

// unifyArgs matches a tuple against compiled argument terms, extending the
// frame. It returns false (leaving any partial bindings for the caller's
// mark/undo) on mismatch.
func unifyArgs(args []cterm, t datalog.Tuple, f *frame) bool {
	if len(t) != len(args) {
		return false
	}
	for i := range args {
		a := &args[i]
		switch a.kind {
		case ctWild:
			// matches anything
		case ctConst:
			if !a.val.Equal(t[i]) {
				return false
			}
		case ctVar:
			if v, ok := f.get(a.slot); ok {
				if !v.Equal(t[i]) {
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
func gatherCols(args []cterm, cols []int, f *frame, buf []datalog.Value) ([]datalog.Value, bool) {
	for _, c := range cols {
		v, ok := ctermValue(&args[c], f)
		if !ok {
			return buf, false
		}
		buf = append(buf, v)
	}
	return buf, true
}
