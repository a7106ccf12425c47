package engine

import (
	"slices"

	"secureblox/internal/datalog"
)

// StepKind names a planned body operation for external consumers (the
// static analyzer) without exposing the execution form.
type StepKind string

// Plan step kinds.
const (
	StepMatch StepKind = "match"
	StepNeg   StepKind = "neg"
	StepCmp   StepKind = "cmp"
	StepUDF   StepKind = "udf"
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
	// Steps is the rule's first plan, the order a full evaluation runs:
	// its location lookups (self[], principal_node[self[]]) as the match
	// steps they are, then the rest of the body. Every body literal is in it.
	Steps []PlanStep
	Agg   *datalog.AggSpec
	Err   error
}

// Plans returns the analyzer's view of the program's rules, in source order:
// each one's first plan as the compiler ordered it, or, for a rule it could
// not plan (PlanProgram), the reason in Err. Only a constraint's right-hand
// side holds a kind check, so a rule's steps are of the four kinds above.
func (p *Program) Plans() []RulePlan {
	kinds := [...]StepKind{stepMatch: StepMatch, stepNeg: StepNeg, stepCmp: StepCmp, stepUDF: StepUDF}
	plans := make([]RulePlan, 0, len(p.planned))
	for _, cr := range p.planned {
		if cr.err != nil {
			plans = append(plans, RulePlan{Src: cr.src, Err: cr.err})
			continue
		}
		plan := RulePlan{Src: cr.src, Heads: cr.heads, Agg: cr.agg}
		for _, s := range slices.Concat(cr.deltaPlans[0].pre, cr.deltaPlans[0].steps) {
			plan.Steps = append(plan.Steps, PlanStep{Kind: kinds[s.kind], Pred: s.pred, Atom: s.atom,
				Op: s.op, L: s.l, R: s.r, BoundCols: s.boundCols})
		}
		plans = append(plans, plan)
	}
	return plans
}
