package engine

import (
	"secureblox/internal/datalog"
)

// StepKind names a planned body operation for external consumers (the
// static analyzer) without exposing the execution form.
type StepKind string

// Plan step kinds.
const (
	StepMatch     StepKind = "match"
	StepNeg       StepKind = "neg"
	StepCmp       StepKind = "cmp"
	StepUDF       StepKind = "udf"
	StepKindCheck StepKind = "kindcheck"
)

// PlanStep is the analyzer-facing view of one planned body step, in the
// order the planner chose to evaluate them.
type PlanStep struct {
	Kind StepKind
	// Pred is the concrete predicate name for match/neg steps, the UDF name
	// for udf steps, and "" for comparisons.
	Pred string
	// Atom is the normalized source atom (match/neg/udf), nil for cmp.
	Atom *datalog.Atom
	// Op/L/R describe a comparison step.
	Op   string
	L, R datalog.Term
	// BoundCols are the argument positions (ascending) that hold a constant
	// or an already-bound variable when the step runs — the join/probe
	// signature the co-partitioning analysis works from.
	BoundCols []int
}

// RulePlan is the analyzer-facing view of one planned rule. When planning
// itself failed (e.g. the body cannot be ordered), Err is set and the other
// fields besides Src are empty.
type RulePlan struct {
	Src   *datalog.Rule
	Heads []*datalog.Atom
	// Steps is the static order, run only by full evaluations (install,
	// aggregate recompute, rederivation after a retraction).
	Steps []PlanStep
	// DeltaPlans holds one order per positive body atom, that atom first:
	// what a semi-naïve evaluation runs when the atom's predicate has a
	// delta. The leading step loops over the delta and has no BoundCols.
	DeltaPlans [][]PlanStep
	// Bound is the set of variables the body binds.
	Bound map[string]bool
	Agg   *datalog.AggSpec
	Err   error
}

// PlanProgram plans every rule of a program against this workspace without
// installing anything permanent: declarations are registered in the catalog
// and relations are created, but no rule is finalized, no fact asserted, and
// no evaluation run. Use a scratch workspace — the catalog mutations are not
// rolled back. Per-rule planning failures are reported in RulePlan.Err
// rather than aborting, so the analyzer sees every rule.
func (w *Workspace) PlanProgram(prog *datalog.Program) ([]RulePlan, error) {
	for _, con := range prog.Constraints {
		if IsDeclaration(con) {
			if _, err := w.cat.DeclareFromConstraint(con); err != nil {
				return nil, err
			}
			w.ensureRelation(con.Lhs[0].Atom.ConcreteName())
		}
	}
	plans := make([]RulePlan, 0, len(prog.Rules))
	for _, r := range prog.Rules {
		cr, err := w.planRule(r)
		if err != nil {
			plans = append(plans, RulePlan{Src: r, Err: err})
			continue
		}
		plans = append(plans, planView(cr))
	}
	return plans, nil
}

// stepsView converts one planned step list to its exported view.
func stepsView(steps []step) []PlanStep {
	out := make([]PlanStep, 0, len(steps))
	for _, s := range steps {
		ps := PlanStep{Pred: s.pred, Atom: s.atom, Op: s.op, L: s.l, R: s.r, BoundCols: s.boundCols}
		switch s.kind {
		case stepMatch:
			ps.Kind = StepMatch
		case stepNeg:
			ps.Kind = StepNeg
		case stepCmp:
			ps.Kind = StepCmp
		case stepUDF:
			ps.Kind = StepUDF
		case stepKindCheck:
			ps.Kind = StepKindCheck
			ps.Pred = s.typeName
		}
		out = append(out, ps)
	}
	return out
}

// planView converts an internal planned rule to its exported view.
func planView(cr *CompiledRule) RulePlan {
	p := RulePlan{
		Src:   cr.src,
		Heads: cr.heads,
		Bound: cr.bound,
		Agg:   cr.agg,
	}
	p.Steps = stepsView(cr.steps)
	for _, plan := range cr.deltaPlans {
		p.DeltaPlans = append(p.DeltaPlans, stepsView(plan))
	}
	return p
}
