package analysis

import (
	"fmt"
	"sort"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
)

// RelColumn names one relation column.
type RelColumn struct {
	Pred string
	Col  int
}

// String renders "pred.col".
func (rc RelColumn) String() string { return fmt.Sprintf("%s.%d", rc.Pred, rc.Col) }

// Partitioning is an inferred hash co-partitioning scheme: the relations in
// Relations route their tuples by hashing the named column into per-
// principal ranges stored in the LoPred/HiPred functional predicates. All
// relations share one hash function, so equi-joins on the hashed columns
// stay node-local.
type Partitioning struct {
	// LoPred/HiPred are the functional predicates holding each principal's
	// inclusive lower and exclusive upper hash bound (e.g. prin_minhash /
	// prin_maxhash).
	LoPred, HiPred string
	// HashUDF is the UDF computing the routing hash (e.g. sha1).
	HashUDF string
	// Relations are the co-partitioned relation columns, sorted by name.
	Relations []RelColumn
}

// SetupFacts derives the partition metadata facts for a deployment: the
// hash domain [0, 2^63) split into len(principals) contiguous ranges in
// principal order, the last range closed at 2^63-1 to absorb rounding. The
// emission order (per principal: LoPred then HiPred) and the arithmetic are
// part of the scenario contract — separate OS processes derive the same
// facts independently.
func (p *Partitioning) SetupFacts(principals []string) []engine.Fact {
	n := len(principals)
	if n == 0 {
		return nil
	}
	facts := make([]engine.Fact, 0, 2*n)
	lo := int64(0)
	step := int64((uint64(1) << 63) / uint64(n))
	for j, name := range principals {
		hi := lo + step
		if j == n-1 {
			hi = int64(^uint64(0) >> 1) // 2^63-1; hash UDFs yield < 2^63
		}
		pv := datalog.Prin(name)
		facts = append(facts,
			engine.Fact{Pred: p.LoPred, Tuple: datalog.Tuple{pv, datalog.Int64(lo)}},
			engine.Fact{Pred: p.HiPred, Tuple: datalog.Tuple{pv, datalog.Int64(hi)}},
		)
		lo = hi
	}
	return facts
}

// InferPartitioning analyzes a program's compiled plans for the hash-range
// routing pattern and returns the co-partitioning it implies. The pattern,
// per routing rule: a relation atom binds a key variable; a hash UDF maps
// it to H; two single-key functional predicates bind a principal U to
// bounds Lo and Hi; comparisons confine H to [Lo, Hi); and the rule's head
// routes the tuple to U. Every routing rule must agree on the bound
// predicates — they define one shared hash function.
func InferPartitioning(prog *datalog.Program, udfs *engine.UDFRegistry) (*Partitioning, error) {
	ws := engine.NewWorkspace(udfs)
	plans, err := ws.PlanProgram(prog)
	if err != nil {
		return nil, err
	}
	for _, p := range plans {
		if p.Err != nil {
			return nil, fmt.Errorf("analysis: cannot infer partitioning: %w", p.Err)
		}
	}
	pt := inferPartitioning(plans, func(name string) bool {
		_, ok := ws.UDFs().Lookup(name)
		return ok
	})
	if pt == nil {
		return nil, fmt.Errorf("analysis: no hash-range routing pattern found")
	}
	return pt, nil
}

// inferPartitioning runs the pattern match over planned rules. Returns nil
// when no rule matches or the matches disagree on the bound predicates.
func inferPartitioning(plans []engine.RulePlan, isUDF func(string) bool) *Partitioning {
	var out *Partitioning
	seen := map[RelColumn]bool{}
	for _, p := range plans {
		m := matchRoutingRule(p)
		if m == nil {
			continue
		}
		if out == nil {
			out = &Partitioning{LoPred: m.loPred, HiPred: m.hiPred, HashUDF: m.hashUDF}
		} else if out.LoPred != m.loPred || out.HiPred != m.hiPred {
			return nil // conflicting hash functions: not co-partitionable
		}
		if !seen[m.rel] {
			seen[m.rel] = true
			out.Relations = append(out.Relations, m.rel)
		}
	}
	if out != nil {
		sort.Slice(out.Relations, func(i, j int) bool {
			if out.Relations[i].Pred != out.Relations[j].Pred {
				return out.Relations[i].Pred < out.Relations[j].Pred
			}
			return out.Relations[i].Col < out.Relations[j].Col
		})
	}
	return out
}

type routingMatch struct {
	loPred, hiPred string
	hashUDF        string
	rel            RelColumn
}

// matchRoutingRule recognizes the range-routing shape in one plan.
func matchRoutingRule(p engine.RulePlan) *routingMatch {
	if p.Err != nil || p.Agg != nil {
		return nil
	}
	// The hash step: a 2-argument UDF from key variable K to hash variable H.
	var hashUDF, keyVar, hashVar string
	for _, s := range p.Steps {
		if s.Kind != engine.StepUDF || len(s.Atom.Args) != 2 {
			continue
		}
		in, okIn := s.Atom.Args[0].(datalog.Var)
		out, okOut := s.Atom.Args[1].(datalog.Var)
		if okIn && okOut {
			hashUDF, keyVar, hashVar = s.Pred, in.Name, out.Name
			break
		}
	}
	if hashUDF == "" {
		return nil
	}
	// Range comparisons: H >= Lo and H < Hi (in either operand order).
	loVar, hiVar := "", ""
	for _, s := range p.Steps {
		if s.Kind != engine.StepCmp {
			continue
		}
		l, lok := s.L.(datalog.Var)
		r, rok := s.R.(datalog.Var)
		if !lok || !rok {
			continue
		}
		switch {
		case s.Op == ">=" && l.Name == hashVar:
			loVar = r.Name
		case s.Op == "<=" && r.Name == hashVar:
			loVar = l.Name
		case s.Op == "<" && l.Name == hashVar:
			hiVar = r.Name
		case s.Op == ">" && r.Name == hashVar:
			hiVar = l.Name
		}
	}
	if loVar == "" || hiVar == "" {
		return nil
	}
	// Bound lookups: single-key functional matches U -> Lo and U -> Hi over
	// the same principal variable U.
	loPred, hiPred, loU, hiU := "", "", "", ""
	for _, s := range p.Steps {
		if s.Kind != engine.StepMatch || !s.Atom.Functional() || s.Atom.KeyArity != 1 {
			continue
		}
		u, uok := s.Atom.Args[0].(datalog.Var)
		v, vok := s.Atom.Args[1].(datalog.Var)
		if !uok || !vok {
			continue
		}
		switch v.Name {
		case loVar:
			loPred, loU = s.Pred, u.Name
		case hiVar:
			hiPred, hiU = s.Pred, u.Name
		}
	}
	if loPred == "" || hiPred == "" || loU != hiU {
		return nil
	}
	// The routed relation: the first relational match binding the key
	// variable names the partitioned column.
	var rel *RelColumn
	for _, s := range p.Steps {
		if s.Kind != engine.StepMatch || s.Atom.Functional() {
			continue
		}
		for i, t := range s.Atom.Args {
			if v, ok := t.(datalog.Var); ok && v.Name == keyVar {
				rel = &RelColumn{Pred: s.Pred, Col: i}
				break
			}
		}
		if rel != nil {
			break
		}
	}
	if rel == nil {
		return nil
	}
	// The head must route to the principal variable.
	routed := false
	for _, h := range p.Heads {
		vars := map[string]bool{}
		datalog.AtomVars(h, vars)
		if vars[loU] {
			routed = true
		}
	}
	if !routed {
		return nil
	}
	return &routingMatch{loPred: loPred, hiPred: hiPred, hashUDF: hashUDF, rel: *rel}
}

// stubUDF is a planning-only UDF: it matches the common input→output shape
// (all arguments except the last must be bound) and refuses evaluation.
// The analyzer only plans rules — planning never calls Eval — so stubs let
// programs referencing keystore-bound UDFs be analyzed without key material.
type stubUDF struct{ name string }

// Name implements engine.UDF.
func (s stubUDF) Name() string { return s.name }

// CanEval implements engine.UDF: every argument but the last is an input.
func (s stubUDF) CanEval(bound []bool) bool {
	if len(bound) == 0 {
		return false
	}
	for i := 0; i < len(bound)-1; i++ {
		if !bound[i] {
			return false
		}
	}
	return true
}

// Eval implements engine.UDF by failing: stubs exist for planning only.
func (s stubUDF) Eval(string, []datalog.Value, []bool) (bool, error) {
	return false, fmt.Errorf("analysis: stub UDF %s cannot be evaluated", s.name)
}

// StubUDFs builds a registry of planning-only UDF stubs for the given
// names. Use it when analyzing programs whose UDFs need key material the
// analyzer does not have.
func StubUDFs(names ...string) *engine.UDFRegistry {
	reg := engine.NewUDFRegistry()
	for _, n := range names {
		if err := reg.Register(stubUDF{name: n}); err != nil {
			panic(err) // duplicate stub name: programmer error
		}
	}
	return reg
}
