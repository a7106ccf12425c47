package engine

import (
	"fmt"

	"secureblox/internal/datalog"
)

// checkRuleTypes implements the paper's §2 compile-time type check: every
// rule deriving facts for a predicate with declared argument types must
// imply the proper set membership for its arguments. A variable's type is
// inferred from the declared types of the body atoms that bind it; a head
// position whose declared type is a builtin kind or entity type must be fed
// by a variable of a compatible type (or a constant of the right kind).
// Positions with undeclared types on either side are not constrained —
// relation-membership types (e.g. principal) remain runtime constraints,
// exactly as in LogicBlox.
func (c *compiler) checkRuleTypes(r *CompiledRule) error {
	varTypes := map[string]string{}

	noteVar := func(name, typ string) {
		if typ == "" {
			return
		}
		if _, kindLike := builtinKinds[typ]; !kindLike {
			if s := c.p.cat.Schema(typ); s == nil || !s.IsEntity {
				return // membership type: runtime concern
			}
		}
		if prev, ok := varTypes[name]; ok && prev != typ {
			// conflicting declared types: leave untyped, the runtime kind
			// check still applies
			varTypes[name] = ""
			return
		}
		varTypes[name] = typ
	}

	plan := &r.deltaPlans[0]
	for _, steps := range [][]step{plan.pre, plan.steps} {
		for _, s := range steps {
			if s.kind != stepMatch {
				continue
			}
			schema := c.p.cat.Schema(s.pred)
			if schema == nil || len(schema.ArgTypes) != len(s.atom.Args) {
				continue
			}
			for i, t := range s.atom.Args {
				if v, ok := t.(datalog.Var); ok {
					noteVar(v.Name, schema.ArgTypes[i])
				}
			}
		}
	}

	for _, h := range r.heads {
		schema := c.p.cat.Schema(h.ConcreteName())
		if schema == nil || len(schema.ArgTypes) != len(h.Args) {
			continue
		}
		for i, t := range h.Args {
			want := schema.ArgTypes[i]
			if want == "" {
				continue
			}
			wantKind, isKind := builtinKinds[want]
			if !isKind {
				s := c.p.cat.Schema(want)
				if s == nil || !s.IsEntity {
					continue // membership type: runtime constraint
				}
			}
			switch tt := t.(type) {
			case datalog.Const:
				if !c.p.cat.CheckKind(want, tt.Val) {
					return fmt.Errorf("rule %s: head %s argument %d: constant %s is not of type %s",
						r.src, h.ConcreteName(), i+1, tt.Val, want)
				}
			case datalog.Var:
				got, known := varTypes[tt.Name]
				if !known || got == "" {
					continue // unknown provenance: runtime kind check applies
				}
				if got != want {
					// int[N] widths all collapse to "int"; entity types
					// must match exactly; kinds must match exactly
					return fmt.Errorf("rule %s: head %s argument %d: variable %s has type %s, want %s",
						r.src, h.ConcreteName(), i+1, tt.Name, got, want)
				}
			case datalog.BinExpr:
				if isKind && wantKind != datalog.KindInt && wantKind != datalog.KindString {
					return fmt.Errorf("rule %s: head %s argument %d: arithmetic expression cannot produce type %s",
						r.src, h.ConcreteName(), i+1, want)
				}
			}
		}
	}
	return nil
}
