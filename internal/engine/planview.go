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
	// StepPrebound is a delta plan's location lookup (self[],
	// principal_node[self[]]): one functional probe before the leading scan.
	StepPrebound StepKind = "prebound"
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
	// DeltaPlans holds one order per positive body atom: what a semi-naïve
	// evaluation runs when the atom's predicate has a delta. It opens with
	// the plan's location lookups (StepPrebound), resolved once; then the
	// delta atom, whose step loops over the delta and has no BoundCols; then
	// the rest. Every body literal is in every plan. A full evaluation
	// (install, aggregate recompute, the recompute after a retraction) runs
	// the first plan over the whole relation. A body with no positive atom
	// has one plan, ordered from nothing.
	DeltaPlans [][]PlanStep
	Agg        *datalog.AggSpec
	Err        error
}

// Plans returns the analyzer's view of the program's rules, in source order:
// each one's plans as the compiler ordered them, or, for a rule it could not
// plan (PlanProgram), the reason in Err.
func (p *Program) Plans() []RulePlan {
	plans := make([]RulePlan, 0, len(p.planned))
	for _, cr := range p.planned {
		if cr.err != nil {
			plans = append(plans, RulePlan{Src: cr.src, Err: cr.err})
			continue
		}
		plans = append(plans, planView(cr))
	}
	return plans
}

// stepsView appends the exported view of one planned step list to out.
func stepsView(out []PlanStep, steps []step) []PlanStep {
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
	p := RulePlan{Src: cr.src, Heads: cr.heads, Agg: cr.agg}
	for _, plan := range cr.deltaPlans {
		view := stepsView(make([]PlanStep, 0, len(plan.pre)+len(plan.steps)), plan.pre)
		for i := range view {
			view[i].Kind = StepPrebound
		}
		p.DeltaPlans = append(p.DeltaPlans, stepsView(view, plan.steps))
	}
	return p
}
