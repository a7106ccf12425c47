package datalog

import (
	"fmt"
	"strings"
)

// Pos is a source position (1-based line and column). The zero Pos means
// "unknown" — e.g. programmatically built or generics-generated atoms.
type Pos struct {
	Line int
	Col  int
}

// Known reports whether the position carries real source coordinates.
func (p Pos) Known() bool { return p.Line > 0 }

// String renders "line:col", or "" for an unknown position.
func (p Pos) String() string {
	if !p.Known() {
		return ""
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Term is an argument position in an atom: a variable, a constant, a
// wildcard, an arithmetic expression, or a functional application such as
// self[] or principal_node[U] used in term position.
type Term interface {
	isTerm()
	String() string
}

// Var is a logic variable (identifier starting with an upper-case letter).
type Var struct{ Name string }

// Const is a literal value.
type Const struct{ Val Value }

// Wildcard is the anonymous variable "_".
type Wildcard struct{}

// BinExpr is an arithmetic expression over terms (e.g. C + 1).
type BinExpr struct {
	Op   string // one of + - * /
	L, R Term
}

// FuncApp is a functional-predicate application used as a term, such as
// self[] or x1node[X1]. The parser rewrites these into auxiliary body
// literals during planning.
type FuncApp struct {
	Pred  string
	Param string // parameterization, e.g. table_owner['publicdata]
	Args  []Term
}

func (Var) isTerm()      {}
func (Const) isTerm()    {}
func (Wildcard) isTerm() {}
func (BinExpr) isTerm()  {}
func (FuncApp) isTerm()  {}

func (v Var) String() string     { return v.Name }
func (c Const) String() string   { return c.Val.String() }
func (Wildcard) String() string  { return "_" }
func (e BinExpr) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }
func (f FuncApp) String() string {
	var sb strings.Builder
	sb.WriteString(f.Pred)
	if f.Param != "" {
		sb.WriteString("['" + f.Param + "]")
	}
	sb.WriteByte('[')
	for i, a := range f.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

// Atom is a predicate application. For a relational atom p(a1,...,an),
// KeyArity is -1 and Args holds all arguments. For a functional atom
// p[k1,...,kn]=v, KeyArity is n and Args holds the keys followed by the
// value. A parameterized atom says['reachable](...) carries Param
// "reachable"; the generics compiler resolves it to a concrete predicate.
type Atom struct {
	Pred     string
	Param    string
	Args     []Term
	KeyArity int
	// Pos is the source position of the predicate name token (zero when
	// the atom was built programmatically).
	Pos Pos
}

// Functional reports whether the atom uses the p[keys]=v form.
func (a *Atom) Functional() bool { return a.KeyArity >= 0 }

// ConcreteName returns the resolved predicate name: Pred for plain atoms and
// Pred+"$"+Param for parameterized atoms.
func (a *Atom) ConcreteName() string {
	if a.Param == "" {
		return a.Pred
	}
	return a.Pred + "$" + a.Param
}

// String reifies the atom as source text.
func (a *Atom) String() string {
	var sb strings.Builder
	sb.WriteString(a.Pred)
	if a.Param != "" {
		sb.WriteString("['" + a.Param + "]")
	}
	if a.Functional() {
		sb.WriteByte('[')
		for i := 0; i < a.KeyArity; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.Args[i].String())
		}
		sb.WriteString("]=")
		sb.WriteString(a.Args[a.KeyArity].String())
	} else {
		sb.WriteByte('(')
		for i, t := range a.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(t.String())
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// Clone returns a deep copy of the atom.
func (a *Atom) Clone() *Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return &Atom{Pred: a.Pred, Param: a.Param, Args: args, KeyArity: a.KeyArity, Pos: a.Pos}
}

// LitKind distinguishes the three body literal forms.
type LitKind uint8

// Body literal kinds.
const (
	LitAtom LitKind = iota // positive predicate atom
	LitNeg                 // negated predicate atom
	LitCmp                 // comparison / binding (X = Y+1, N != N2, ...)
)

// Literal is one conjunct in a rule body or constraint side.
type Literal struct {
	Kind LitKind
	Atom *Atom  // LitAtom / LitNeg
	Op   string // LitCmp: one of = != < <= > >=
	L, R Term   // LitCmp operands
}

// String reifies the literal.
func (l Literal) String() string {
	switch l.Kind {
	case LitAtom:
		return l.Atom.String()
	case LitNeg:
		return "!" + l.Atom.String()
	default:
		return fmt.Sprintf("%s %s %s", l.L, l.Op, l.R)
	}
}

// AggSpec describes an aggregation head binding: Result = Func(Over), as in
// agg<< C = min(Cx) >>.
type AggSpec struct {
	Result string // variable bound to the aggregate result
	Func   string // min, max, count, sum
	Over   string // variable aggregated over ("" for count())
}

// String reifies the aggregation spec.
func (a AggSpec) String() string {
	return fmt.Sprintf("agg<< %s = %s(%s) >>", a.Result, a.Func, a.Over)
}

// Rule is a derivation rule: Heads <- Body. Multiple head atoms derive
// simultaneously from one body binding (as in the paper's path-vector
// rules). A non-nil Agg makes this an aggregation rule.
type Rule struct {
	Heads []*Atom
	Body  []Literal
	Agg   *AggSpec
	// Pos is the source position of the rule's first head atom.
	Pos Pos
}

// String reifies the rule.
func (r *Rule) String() string {
	var sb strings.Builder
	for i, h := range r.Heads {
		if i > 0 {
			sb.WriteString(",\n  ")
		}
		sb.WriteString(h.String())
	}
	sb.WriteString(" <- ")
	if r.Agg != nil {
		sb.WriteString(r.Agg.String())
		sb.WriteByte(' ')
	}
	for i, l := range r.Body {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(l.String())
	}
	sb.WriteByte('.')
	return sb.String()
}

// Constraint is an integrity constraint: Lhs -> Rhs. For every binding of
// Lhs, Rhs must be satisfiable (variables appearing only in Rhs are
// existential). An empty Rhs is a pure declaration (e.g. "pathvar(P) -> .").
type Constraint struct {
	Lhs []Literal
	Rhs []Literal
	// Pos is the source position of the constraint's first LHS literal.
	Pos Pos
}

// String reifies the constraint.
func (c *Constraint) String() string {
	var sb strings.Builder
	for i, l := range c.Lhs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(l.String())
	}
	sb.WriteString(" -> ")
	for i, l := range c.Rhs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(l.String())
	}
	sb.WriteByte('.')
	return sb.String()
}

// Program is a parsed DatalogLB compilation unit.
type Program struct {
	Rules       []*Rule
	Constraints []*Constraint
	Facts       []*Atom // ground atoms asserted in source
}

// String reifies the whole program.
func (p *Program) String() string {
	var sb strings.Builder
	for _, c := range p.Constraints {
		sb.WriteString(c.String())
		sb.WriteByte('\n')
	}
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	for _, f := range p.Facts {
		sb.WriteString(f.String())
		sb.WriteString(".\n")
	}
	return sb.String()
}

// Append merges another program into p.
func (p *Program) Append(o *Program) {
	p.Rules = append(p.Rules, o.Rules...)
	p.Constraints = append(p.Constraints, o.Constraints...)
	p.Facts = append(p.Facts, o.Facts...)
}

// VarsOf collects the variable names appearing in a term into set.
func VarsOf(t Term, set map[string]bool) {
	switch tt := t.(type) {
	case Var:
		set[tt.Name] = true
	case BinExpr:
		VarsOf(tt.L, set)
		VarsOf(tt.R, set)
	case FuncApp:
		for _, a := range tt.Args {
			VarsOf(a, set)
		}
	}
}

// AtomVars collects the variable names appearing in an atom.
func AtomVars(a *Atom, set map[string]bool) {
	for _, t := range a.Args {
		VarsOf(t, set)
	}
}
