package generics

import (
	"fmt"
	"sort"
	"strings"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
)

// Compiler is the BloxGenerics compiler: it combines a user query with
// security policies, evaluates generic rules over the program's relational
// representation to a fixpoint, verifies generic constraints, and emits a
// concrete DatalogLB program.
type Compiler struct {
	policies []*PolicySource
}

// maxRounds bounds meta-evaluation; exceeding it is a compile error,
// mirroring the paper's time-limited fixpoint check (§4.1.1).
const maxRounds = 64

// NewCompiler returns a compiler with no policies.
func NewCompiler() *Compiler { return &Compiler{} }

// AddPolicy parses and registers a BloxGenerics policy source.
func (c *Compiler) AddPolicy(src string) error {
	ps, err := ParsePolicy(src)
	if err != nil {
		return err
	}
	c.policies = append(c.policies, ps)
	return nil
}

// Result is the output of a BloxGenerics compilation.
type Result struct {
	// Program is the complete concrete program: the user query, policy
	// passthrough code, and all generated rules and constraints.
	Program *datalog.Program
	// GeneratedSrc is the reified source of only the generated code.
	GeneratedSrc string
	// MetaFacts is the final meta database (predicate, exportable, says
	// mappings, ...), exposed for inspection and testing.
	MetaFacts map[string][][]string
}

// predInfoMap tracks compile-time schema knowledge.
type predInfoMap map[string]*PredInfo

func (m predInfoMap) observe(a *datalog.Atom) {
	name := a.ConcreteName()
	if _, ok := m[name]; ok {
		return
	}
	m[name] = &PredInfo{Name: name, Arity: len(a.Args), KeyArity: a.KeyArity, ArgTypes: make([]string, len(a.Args))}
}

// harvest records schema info from a parsed program: declarations override
// usage-inferred arities.
func (m predInfoMap) harvest(prog *datalog.Program) {
	visitLit := func(l datalog.Literal) {
		if l.Kind == datalog.LitAtom || l.Kind == datalog.LitNeg {
			m.observe(l.Atom)
		}
	}
	for _, con := range prog.Constraints {
		if engine.IsDeclaration(con) {
			a := con.Lhs[0].Atom
			name := a.ConcreteName()
			info := &PredInfo{Name: name, Arity: len(a.Args), KeyArity: a.KeyArity, ArgTypes: make([]string, len(a.Args))}
			byVar := map[string]int{}
			for i, t := range a.Args {
				byVar[t.(datalog.Var).Name] = i
			}
			for _, l := range con.Rhs {
				v := l.Atom.Args[0].(datalog.Var)
				info.ArgTypes[byVar[v.Name]] = l.Atom.ConcreteName()
			}
			m[name] = info
			continue
		}
		for _, l := range con.Lhs {
			visitLit(l)
		}
		for _, l := range con.Rhs {
			visitLit(l)
		}
	}
	for _, r := range prog.Rules {
		for _, h := range r.Heads {
			m.observe(h)
		}
		for _, l := range r.Body {
			visitLit(l)
		}
	}
	for _, f := range prog.Facts {
		m.observe(f)
	}
}

// Compile runs the full pipeline on a user query.
func (c *Compiler) Compile(query string) (*Result, error) {
	userProg, err := datalog.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}

	info := predInfoMap{}
	info.harvest(userProg)
	var passProgs []*datalog.Program
	for i, p := range c.policies {
		if strings.TrimSpace(p.Passthrough) == "" {
			continue
		}
		pp, err := datalog.Parse(p.Passthrough)
		if err != nil {
			return nil, fmt.Errorf("policy %d passthrough: %w", i, err)
		}
		info.harvest(pp)
		passProgs = append(passProgs, pp)
	}

	// Which meta predicates do the generic rules consume? Facts over them
	// become compile-time facts.
	metaPreds := map[string]bool{"predicate": true}
	var allRules []GenericRule
	var allCons []GenericConstraint
	for _, p := range c.policies {
		allRules = append(allRules, p.Rules...)
		allCons = append(allCons, p.Constraints...)
	}
	for _, r := range allRules {
		for _, a := range r.Body {
			metaPreds[a.Pred] = true
		}
	}
	for _, gc := range allCons {
		for _, a := range append(append([]MetaAtom{}, gc.Lhs...), gc.Rhs...) {
			metaPreds[a.Pred] = true
		}
	}

	db := newMetaDB()
	// Seed predicate(p) for every concrete user/passthrough predicate.
	for name := range info {
		if !strings.Contains(name, "$") {
			db.insert("predicate", []string{name})
		}
	}
	// Seed compile-time facts (e.g. exportable('reachable)) from the user
	// query and policy passthrough.
	seedFacts := func(prog *datalog.Program) {
		for _, f := range prog.Facts {
			if !metaPreds[f.Pred] || f.Pred == "predicate" {
				continue
			}
			tuple := make([]string, 0, len(f.Args))
			ok := true
			for _, t := range f.Args {
				cv, isConst := t.(datalog.Const)
				if !isConst || (cv.Val.Kind != datalog.KindName && cv.Val.Kind != datalog.KindString) {
					ok = false
					break
				}
				tuple = append(tuple, cv.Val.Str)
			}
			if ok {
				db.insert(f.Pred, tuple)
			}
		}
	}
	seedFacts(userProg)
	for _, pp := range passProgs {
		seedFacts(pp)
	}

	// Fixpoint evaluation of generic rules.
	generated := &datalog.Program{}
	var genSrc strings.Builder
	instantiated := map[string]bool{}
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("bloxgenerics: no fixpoint within %d rounds (head-existential cascade? add an exportable guard)", maxRounds)
		}
		changed := false
		for ri := range allRules {
			r := &allRules[ri]
			err := db.matchAtoms(r.Body, map[string]string{}, func(b map[string]string) error {
				ch, err := c.fire(r, ri, b, db, info, generated, &genSrc, instantiated)
				if err != nil {
					return err
				}
				if ch {
					changed = true
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		// Generic constraints are verified as derivation proceeds, so a
		// violating program is rejected before (further) code generation
		// (paper §4.1.4).
		if err := checkGenericConstraints(db, allCons); err != nil {
			return nil, err
		}
		if !changed {
			break
		}
	}

	// Assemble: user query + passthrough + generated.
	full := &datalog.Program{}
	full.Append(userProg)
	for _, pp := range passProgs {
		full.Append(pp)
	}
	full.Append(generated)

	if err := c.validateParams(full, allRules, db); err != nil {
		return nil, err
	}

	return &Result{
		Program:      full,
		GeneratedSrc: genSrc.String(),
		MetaFacts:    exportMeta(db),
	}, nil
}

// fire derives one generic-rule instance: Skolemizes head existentials,
// inserts head meta facts, and instantiates templates (once per binding).
func (c *Compiler) fire(r *GenericRule, ri int, b map[string]string, db *metaDB,
	info predInfoMap, generated *datalog.Program, genSrc *strings.Builder,
	instantiated map[string]bool) (bool, error) {

	// Resolve head existentials: repeatedly find a head atom whose last
	// argument is the only unbound variable, and Skolemize it from the
	// bound ones (says[T]=ST gives ST = "says$" + T).
	local := map[string]string{}
	for k, v := range b {
		local[k] = v
	}
	for progress := true; progress; {
		progress = false
		for _, h := range r.Heads {
			last := len(h.Args) - 1
			if last < 0 {
				continue
			}
			lv := h.Args[last]
			if lv.IsConst {
				continue
			}
			if _, bound := local[lv.Name]; bound {
				continue
			}
			parts := make([]string, 0, last)
			ok := true
			for _, a := range h.Args[:last] {
				val := a.Name
				if !a.IsConst {
					v, bnd := local[a.Name]
					if !bnd {
						ok = false
						break
					}
					val = v
				}
				parts = append(parts, val)
			}
			if ok && len(parts) > 0 {
				local[lv.Name] = h.Pred + "$" + strings.Join(parts, "$")
				progress = true
			}
		}
	}

	changed := false
	for _, h := range r.Heads {
		tuple := make([]string, len(h.Args))
		for i, a := range h.Args {
			if a.IsConst {
				tuple[i] = a.Name
				continue
			}
			v, bound := local[a.Name]
			if !bound {
				return false, fmt.Errorf("bloxgenerics: rule %s: head variable %s cannot be resolved", r.Src, a.Name)
			}
			tuple[i] = v
		}
		if db.insert(h.Pred, tuple) {
			changed = true
		}
	}

	if len(r.Templates) > 0 {
		key := instKey(ri, local)
		if !instantiated[key] {
			instantiated[key] = true
			changed = true
			subject := local[r.SubjectVar]
			si := info[subject]
			arity, types := 0, []string(nil)
			if si != nil {
				arity, types = si.Arity, si.ArgTypes
				if si.KeyArity >= 0 {
					// For functional subjects V* covers all arguments
					// (keys plus value).
					arity = si.Arity
				}
			}
			for _, tmpl := range r.Templates {
				text, err := instantiate(tmpl, local, arity, types)
				if err != nil {
					return false, fmt.Errorf("bloxgenerics: rule %s: %w", r.Src, err)
				}
				prog, err := datalog.Parse(text)
				if err != nil {
					return false, fmt.Errorf("bloxgenerics: generated code does not parse: %w\n--- generated ---\n%s", err, text)
				}
				info.harvest(prog)
				generated.Append(prog)
				genSrc.WriteString(prog.String())
			}
		}
	}
	return changed, nil
}

func instKey(ri int, b map[string]string) string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", ri)
	for _, k := range keys {
		sb.WriteString("|" + k + "=" + b[k])
	}
	return sb.String()
}

func checkGenericConstraints(db *metaDB, cons []GenericConstraint) error {
	for _, gc := range cons {
		err := db.matchAtoms(gc.Lhs, map[string]string{}, func(b map[string]string) error {
			ok, err := rhsHolds(db, gc.Rhs, b)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("bloxgenerics: generic constraint violated: %s (binding %s)", gc, fmtBinding(b))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func rhsHolds(db *metaDB, rhs []MetaAtom, b map[string]string) (bool, error) {
	found := fmt.Errorf("found")
	err := db.matchAtoms(rhs, b, func(map[string]string) error { return found })
	if err == found {
		return true, nil
	}
	return false, err
}

func fmtBinding(b map[string]string) string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+b[k])
	}
	return strings.Join(parts, ", ")
}

// validateParams checks every parameterized atom whose base predicate is a
// generic function (e.g. says['foo]) against the meta database: using a
// parameter for which no policy instance was generated is a compile error.
func (c *Compiler) validateParams(prog *datalog.Program, rules []GenericRule, db *metaDB) error {
	genericFns := map[string]bool{}
	for _, r := range rules {
		for _, h := range r.Heads {
			if h.Pred != "predicate" {
				genericFns[h.Pred] = true
			}
		}
	}
	check := func(a *datalog.Atom) error {
		if a.Param == "" || !genericFns[a.Pred] {
			return nil
		}
		for _, t := range db.tuples(a.Pred) {
			if len(t) >= 1 && t[0] == a.Param {
				return nil
			}
		}
		return fmt.Errorf("bloxgenerics: %s['%s] used, but no %s instance was generated for %s (is it exportable?)",
			a.Pred, a.Param, a.Pred, a.Param)
	}
	visit := func(l datalog.Literal) error {
		if l.Kind == datalog.LitAtom || l.Kind == datalog.LitNeg {
			return check(l.Atom)
		}
		return nil
	}
	for _, r := range prog.Rules {
		for _, h := range r.Heads {
			if err := check(h); err != nil {
				return err
			}
		}
		for _, l := range r.Body {
			if err := visit(l); err != nil {
				return err
			}
		}
	}
	for _, con := range prog.Constraints {
		for _, l := range append(append([]datalog.Literal{}, con.Lhs...), con.Rhs...) {
			if err := visit(l); err != nil {
				return err
			}
		}
	}
	for _, f := range prog.Facts {
		if err := check(f); err != nil {
			return err
		}
	}
	return nil
}

func exportMeta(db *metaDB) map[string][][]string {
	out := make(map[string][][]string, len(db.rels))
	for pred := range db.rels {
		out[pred] = db.tuples(pred)
	}
	return out
}
