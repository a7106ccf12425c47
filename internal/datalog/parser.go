package datalog

import (
	"fmt"
)

// Parser parses DatalogLB source text into a Program. It operates over the
// full token stream with arbitrary lookahead.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a complete DatalogLB program.
func Parse(src string) (*Program, error) {
	toks, err := Tokens(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	return p.parseProgram()
}

func (p *Parser) cur() Token        { return p.toks[p.pos] }
func (p *Parser) at(k TokKind) bool { return p.toks[p.pos].Kind == k }
func (p *Parser) peekKind(off int) TokKind {
	if p.pos+off >= len(p.toks) {
		return TokEOF
	}
	return p.toks[p.pos+off].Kind
}

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) expect(k TokKind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, fmt.Errorf("line %d: expected %s, found %s", t.Line, k, t.Kind)
	}
	return p.next(), nil
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("line %d: %s", t.Line, fmt.Sprintf(format, args...))
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for !p.at(TokEOF) {
		if err := p.parseStatement(prog); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// parseStatement parses one fact list, rule, or constraint.
func (p *Parser) parseStatement(prog *Program) error {
	start := p.cur()
	lhs, err := p.parseLiteralList(true)
	if err != nil {
		return err
	}
	switch p.cur().Kind {
	case TokDot:
		p.next()
		for _, l := range lhs {
			if l.Kind != LitAtom {
				return fmt.Errorf("fact must be a plain atom, got %s", l)
			}
			if !groundAtom(l.Atom) {
				return fmt.Errorf("fact %s is not ground", l.Atom)
			}
			prog.Facts = append(prog.Facts, l.Atom)
		}
		return nil
	case TokArrowL:
		p.next()
		heads := make([]*Atom, 0, len(lhs))
		for _, l := range lhs {
			if l.Kind != LitAtom {
				return fmt.Errorf("rule head must be atoms, got %s", l)
			}
			heads = append(heads, l.Atom)
		}
		rule := &Rule{Heads: heads, Pos: heads[0].Pos}
		if p.at(TokAgg) {
			spec, err := p.parseAggSpec()
			if err != nil {
				return err
			}
			rule.Agg = spec
		}
		body, err := p.parseLiteralList(false)
		if err != nil {
			return err
		}
		rule.Body = body
		if _, err := p.expect(TokDot); err != nil {
			return err
		}
		prog.Rules = append(prog.Rules, rule)
		return nil
	case TokArrowR:
		p.next()
		c := &Constraint{Lhs: lhs, Pos: Pos{Line: start.Line, Col: start.Col}}
		if !p.at(TokDot) {
			rhs, err := p.parseLiteralList(false)
			if err != nil {
				return err
			}
			c.Rhs = rhs
		}
		if _, err := p.expect(TokDot); err != nil {
			return err
		}
		prog.Constraints = append(prog.Constraints, c)
		return nil
	default:
		return p.errf("expected '.', '<-' or '->' after %s", lhs[len(lhs)-1])
	}
}

// parseAggSpec parses agg<< C = min(Cx) >>.
func (p *Parser) parseAggSpec() (*AggSpec, error) {
	p.next() // agg
	if _, err := p.expect(TokShiftL); err != nil {
		return nil, err
	}
	res, err := p.expect(TokVar)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokEq); err != nil {
		return nil, err
	}
	fn, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	switch fn.Text {
	case "min", "max", "count", "sum":
	default:
		return nil, fmt.Errorf("line %d: unknown aggregate %q", fn.Line, fn.Text)
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	spec := &AggSpec{Result: res.Text, Func: fn.Text}
	if !p.at(TokRParen) {
		over, err := p.expect(TokVar)
		if err != nil {
			return nil, err
		}
		spec.Over = over.Text
	} else if fn.Text != "count" {
		return nil, fmt.Errorf("line %d: aggregate %s needs a variable", fn.Line, fn.Text)
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokShiftR); err != nil {
		return nil, err
	}
	return spec, nil
}

// parseLiteralList parses a comma-separated list of literals, stopping
// before '.', '<-' or '->'.
func (p *Parser) parseLiteralList(headPos bool) ([]Literal, error) {
	var out []Literal
	for {
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		out = append(out, lit)
		if p.at(TokComma) {
			p.next()
			continue
		}
		return out, nil
	}
}

func (p *Parser) parseLiteral() (Literal, error) {
	if p.at(TokBang) {
		p.next()
		a, err := p.parseAtom()
		if err != nil {
			return Literal{}, err
		}
		return Literal{Kind: LitNeg, Atom: a}, nil
	}
	// An atom begins with IDENT '(' or IDENT '[' where the bracket ends in
	// ']' '=' (functional atom) or ']' '(' (parameterized atom). Anything
	// else is a comparison between terms.
	if p.at(TokIdent) {
		switch p.peekKind(1) {
		case TokLParen:
			a, err := p.parseAtom()
			if err != nil {
				return Literal{}, err
			}
			return Literal{Kind: LitAtom, Atom: a}, nil
		case TokLBrack:
			if p.isAtomBracket() {
				a, err := p.parseAtom()
				if err != nil {
					return Literal{}, err
				}
				return Literal{Kind: LitAtom, Atom: a}, nil
			}
		}
	}
	l, err := p.parseTerm()
	if err != nil {
		return Literal{}, err
	}
	op := ""
	switch p.cur().Kind {
	case TokEq:
		op = "="
	case TokNe:
		op = "!="
	case TokLt:
		op = "<"
	case TokLe:
		op = "<="
	case TokGt:
		op = ">"
	case TokGe:
		op = ">="
	default:
		return Literal{}, p.errf("expected comparison operator after term %s", l)
	}
	p.next()
	r, err := p.parseTerm()
	if err != nil {
		return Literal{}, err
	}
	return Literal{Kind: LitCmp, Op: op, L: l, R: r}, nil
}

// isAtomBracket looks ahead from IDENT '[' and reports whether this is an
// atom (functional p[keys]=v or parameterized p['q](...) / p['q][keys]=v /
// p[T](...) in template position) rather than a FuncApp term.
func (p *Parser) isAtomBracket() bool {
	// scan to the matching ']'
	depth := 0
	i := p.pos + 1
	for ; i < len(p.toks); i++ {
		switch p.toks[i].Kind {
		case TokLBrack:
			depth++
		case TokRBrack:
			depth--
			if depth == 0 {
				// token after the matching ']'
				switch p.peekKindAbs(i + 1) {
				case TokEq, TokLParen, TokLBrack:
					return true
				default:
					return false
				}
			}
		case TokEOF, TokDot:
			return false
		}
	}
	return false
}

func (p *Parser) peekKindAbs(i int) TokKind {
	if i >= len(p.toks) {
		return TokEOF
	}
	return p.toks[i].Kind
}

// parseAtom parses a relational, functional, or parameterized atom. The
// current token must be TokIdent.
func (p *Parser) parseAtom() (*Atom, error) {
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	a := &Atom{Pred: name.Text, KeyArity: -1, Pos: Pos{Line: name.Line, Col: name.Col}}

	// Parameterization or width annotation: p['q]... or int[32](...)
	if p.at(TokLBrack) {
		if p.peekKind(1) == TokQName && p.peekKind(2) == TokRBrack &&
			(p.peekKind(3) == TokLParen || p.peekKind(3) == TokLBrack) {
			p.next() // [
			a.Param = p.next().Text
			p.next() // ]
		} else if p.peekKind(1) == TokInt && p.peekKind(2) == TokRBrack &&
			p.peekKind(3) == TokLParen {
			// width annotation like int[32] — accepted and ignored
			p.next()
			p.next()
			p.next()
		}
	}

	switch p.cur().Kind {
	case TokLParen:
		p.next()
		for !p.at(TokRParen) {
			t, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			a.Args = append(a.Args, t)
			if p.at(TokComma) {
				p.next()
			} else {
				break
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return a, nil
	case TokLBrack:
		p.next()
		for !p.at(TokRBrack) {
			t, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			a.Args = append(a.Args, t)
			if p.at(TokComma) {
				p.next()
			} else {
				break
			}
		}
		if _, err := p.expect(TokRBrack); err != nil {
			return nil, err
		}
		a.KeyArity = len(a.Args)
		if _, err := p.expect(TokEq); err != nil {
			return nil, err
		}
		v, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		a.Args = append(a.Args, v)
		return a, nil
	default:
		return nil, p.errf("expected ( or [ after predicate %s", name.Text)
	}
}

// parseTerm parses an additive expression.
func (p *Parser) parseTerm() (Term, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(TokPlus) || p.at(TokMinus) {
		op := "+"
		if p.at(TokMinus) {
			op = "-"
		}
		p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseMul() (Term, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(TokStar) || p.at(TokSlash) {
		op := "*"
		if p.at(TokSlash) {
			op = "/"
		}
		p.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parsePrimary() (Term, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		return Const{Int64(t.Int)}, nil
	case TokMinus:
		p.next()
		n, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		return Const{Int64(-n.Int)}, nil
	case TokString:
		p.next()
		return Const{String_(t.Text)}, nil
	case TokBytes:
		p.next()
		return Const{BytesV([]byte(t.Text))}, nil
	case TokQName:
		p.next()
		return Const{Name(t.Text)}, nil
	case TokNode:
		p.next()
		return Const{NodeV(t.Text)}, nil
	case TokPrin:
		p.next()
		return Const{Prin(t.Text)}, nil
	case TokTrue:
		p.next()
		return Const{Bool(true)}, nil
	case TokFalse:
		p.next()
		return Const{Bool(false)}, nil
	case TokVar:
		p.next()
		return Var{t.Text}, nil
	case TokWild:
		p.next()
		return Wildcard{}, nil
	case TokLParen:
		p.next()
		inner, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	case TokIdent:
		// FuncApp term: name[...] (keys may be empty: self[])
		name := p.next()
		if !p.at(TokLBrack) {
			return nil, p.errf("expected [ after %s in term position", name.Text)
		}
		p.next()
		fa := FuncApp{Pred: name.Text}
		if p.at(TokQName) && p.peekKind(1) == TokRBrack && p.peekKind(2) == TokLBrack {
			fa.Param = p.next().Text
			p.next() // ]
			p.next() // [
		}
		for !p.at(TokRBrack) {
			arg, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			fa.Args = append(fa.Args, arg)
			if p.at(TokComma) {
				p.next()
			} else {
				break
			}
		}
		if _, err := p.expect(TokRBrack); err != nil {
			return nil, err
		}
		return fa, nil
	default:
		return nil, p.errf("unexpected token %s in term position", t.Kind)
	}
}

func groundTerm(t Term) bool {
	_, ok := t.(Const)
	return ok
}

func groundAtom(a *Atom) bool {
	for _, t := range a.Args {
		if !groundTerm(t) {
			return false
		}
	}
	return true
}
