// Package analysis is the static program analyzer for compiled DatalogLB
// rule plans: it builds per-program dependency, binding, and join-attribute
// graphs, runs a diagnostic suite (safety, range restriction,
// stratification, dead rules, unused relations), and infers hash
// co-partitioning from the join columns of the plans — the
// BloxBatch-style compile-time checks the paper's toolchain performs before
// a program ever runs. `sbx vet` and `sbxnode -vet` print its findings;
// engine.Workspace.InstallCheck can reject error-class findings at install
// time.
package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
)

// Severity classifies a finding.
type Severity int

// Severity levels: Warning findings are suspicious but legal (the paper's
// programs are semantically stratified through the network), Error findings
// make the program unsafe to install.
const (
	Warning Severity = iota
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "error"
}

// Finding codes emitted by the diagnostic suite.
const (
	CodeUnsafeHeadVar    = "unsafe-head-var"
	CodeUnboundNegation  = "unbound-negation"
	CodeRangeRestriction = "range-restriction"
	CodeUnorderableBody  = "unorderable-body"
	CodeUnstratifiedNeg  = "unstratified-negation"
	CodeAggregateCycle   = "aggregate-in-cycle"
	CodeDeadRule         = "dead-rule"
	CodeUnusedRelation   = "unused-relation"
	CodeNonCopartition   = "non-copartitionable-join"
)

// Finding is one diagnostic, anchored to a source position when the program
// text carried one.
type Finding struct {
	Severity Severity
	Code     string
	Pos      datalog.Pos
	// Rule is the source form of the offending rule ("" for program-level
	// findings such as unused relations).
	Rule string
	Msg  string
}

// String renders the finding in the conventional "pos: severity[code]: msg"
// shape used by sbx vet.
func (f Finding) String() string {
	var sb strings.Builder
	if f.Pos.Known() {
		sb.WriteString(f.Pos.String())
		sb.WriteString(": ")
	}
	fmt.Fprintf(&sb, "%s[%s]: %s", f.Severity, f.Code, f.Msg)
	return sb.String()
}

// RuleInfo is the per-rule binding view: which variables the body binds and
// in which order the planner evaluates the body.
type RuleInfo struct {
	Rule string
	Pos  datalog.Pos
	// Bound is the set of variables the planned body binds.
	Bound map[string]bool
	// Order lists the steps of the static plan — what a full evaluation
	// runs — in evaluation order (source form).
	Order []string
	// DeltaOrders lists, per positive body atom, the delta-first order a
	// semi-naïve evaluation runs when that atom's predicate changed.
	DeltaOrders [][]string
}

// Report is the result of analyzing one program.
type Report struct {
	Findings []Finding
	// Deps is the predicate dependency graph.
	Deps *DepGraph
	// Joins is the join-attribute graph: equi-join edges between relation
	// columns observed across all rule bodies.
	Joins []JoinEdge
	// Rules carries per-rule binding information.
	Rules []RuleInfo
	// Partitioning is the inferred hash co-partitioning, nil when the
	// program has no recognizable hash-range routing pattern.
	Partitioning *Partitioning
}

// HasErrors reports whether any error-class finding was produced.
func (r *Report) HasErrors() bool {
	for _, f := range r.Findings {
		if f.Severity == Error {
			return true
		}
	}
	return false
}

// Errors returns only the error-class findings.
func (r *Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == Error {
			out = append(out, f)
		}
	}
	return out
}

// WriteFindings renders findings one per line to w in the conventional
// "target:line:col: severity[code]: msg" shape, prefixing each line with the
// target name (a file or rule-set name) when one is given. It returns the
// number of error-class findings written.
func WriteFindings(w io.Writer, target string, findings []Finding) int {
	errs := 0
	for _, f := range findings {
		if f.Severity == Error {
			errs++
		}
		if target == "" {
			fmt.Fprintln(w, f)
			continue
		}
		loc := target
		if f.Pos.Known() {
			loc += ":" + f.Pos.String()
		}
		fmt.Fprintf(w, "%s: %s[%s]: %s\n", loc, f.Severity, f.Code, f.Msg)
	}
	return errs
}

// Analyzer configures an analysis pass.
type Analyzer struct {
	// UDFs resolves user-defined functions during planning; atoms over
	// registered UDFs bind their variables instead of being relation scans.
	// Use StubUDFs when the real (keystore-bound) registry is unavailable —
	// planning never evaluates a UDF.
	UDFs *engine.UDFRegistry
}

// Analyze runs the full diagnostic suite over a program. The returned error
// is reserved for programs whose declarations cannot be registered at all;
// everything else is reported as findings.
func (a *Analyzer) Analyze(prog *datalog.Program) (*Report, error) {
	ws := engine.NewWorkspace(a.UDFs)
	plans, err := ws.PlanProgram(prog)
	if err != nil {
		return nil, err
	}
	cat := ws.Catalog()
	isUDF := func(name string) bool {
		_, ok := ws.UDFs().Lookup(name)
		return ok
	}

	r := &Report{}
	for _, p := range plans {
		a.checkRule(r, p, cat)
	}
	r.Deps = buildDepGraph(plans, isUDF)
	checkStratification(r, plans)
	checkDeadRules(r, plans, prog, isUDF)
	checkUnusedRelations(r, prog, cat)
	r.Joins = buildJoinGraph(plans)
	checkCopartitioning(r, r.Joins)
	r.Partitioning = inferPartitioning(plans, isUDF)
	return r, nil
}

// AnalyzeSource parses and analyzes DatalogLB source text.
func (a *Analyzer) AnalyzeSource(src string) (*Report, error) {
	prog, err := datalog.Parse(src)
	if err != nil {
		return nil, err
	}
	return a.Analyze(prog)
}

// InstallCheck returns a hook for engine.Workspace.InstallCheck that
// rejects programs with error-class findings before Install mutates
// anything.
func (a *Analyzer) InstallCheck() func(*datalog.Program) error {
	return func(prog *datalog.Program) error {
		rep, err := a.Analyze(prog)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		if errs := rep.Errors(); len(errs) > 0 {
			lines := make([]string, len(errs))
			for i, f := range errs {
				lines[i] = f.String()
			}
			return fmt.Errorf("analysis: program rejected:\n  %s", strings.Join(lines, "\n  "))
		}
		return nil
	}
}

// checkRule runs the per-rule diagnostics: safety and range restriction
// from the AST binding analysis, and plan-failure reporting.
func (a *Analyzer) checkRule(r *Report, p engine.RulePlan, cat *engine.Catalog) {
	rule := p.Src
	b := astBinding(rule)

	info := RuleInfo{Rule: rule.String(), Pos: rule.Pos, Bound: b.bound}
	if p.Err == nil {
		info.Bound = p.Bound
		info.Order = describePlan(p.Steps)
		for _, plan := range p.DeltaPlans {
			info.DeltaOrders = append(info.DeltaOrders, describePlan(plan))
		}
	}
	r.Rules = append(r.Rules, info)

	flagged := map[string]bool{}
	add := func(sev Severity, code string, pos datalog.Pos, format string, args ...any) {
		r.Findings = append(r.Findings, Finding{
			Severity: sev, Code: code, Pos: pos, Rule: rule.String(),
			Msg: fmt.Sprintf(format, args...),
		})
	}

	// Safety: every head variable must be bound by the body, be the
	// aggregate result, or be a head-existential over an entity type.
	for _, h := range rule.Heads {
		for _, v := range sortedVars(headNeedVars(h)) {
			if b.bound[v] || flagged[v] {
				continue
			}
			if rule.Agg != nil && v == rule.Agg.Result {
				continue
			}
			if isEntityExistential(rule, v, cat) {
				continue
			}
			flagged[v] = true
			add(Error, CodeUnsafeHeadVar, h.Pos,
				"head variable %s of %s is not bound by the body and has no entity type", v, h.ConcreteName())
		}
	}

	// Unbound negation: a negated atom may only constrain variables the
	// positive body binds.
	for _, l := range rule.Body {
		if l.Kind != datalog.LitNeg {
			continue
		}
		for _, v := range sortedVars(topLevelVars(l.Atom)) {
			if b.bound[v] || flagged[v] {
				continue
			}
			flagged[v] = true
			add(Error, CodeUnboundNegation, l.Atom.Pos,
				"variable %s in negated atom !%s is not bound by any positive literal", v, l.Atom)
		}
	}

	// Range restriction: variables appearing only in comparisons range over
	// an infinite domain.
	for _, v := range sortedVars(b.cmpVars) {
		if b.bound[v] || flagged[v] {
			continue
		}
		flagged[v] = true
		add(Error, CodeRangeRestriction, rule.Pos,
			"variable %s occurs only in comparisons and ranges over an infinite domain", v)
	}

	// Planning failed for a reason the AST checks did not explain.
	if p.Err != nil && len(flagged) == 0 {
		add(Error, CodeUnorderableBody, rule.Pos, "%v", p.Err)
	}
}

// binding is the AST-level binding analysis result for one rule.
type binding struct {
	// bound is the fixpoint of variables bound by positive atoms, UDF
	// completions, functional lookups nested in any literal, and transitive
	// "=" bindings.
	bound map[string]bool
	// cmpVars are all variables appearing in comparison literals.
	cmpVars map[string]bool
}

// astBinding computes the bound-variable fixpoint of a rule body without
// requiring the body to be orderable, so safety diagnostics still carry
// positions when planning itself fails.
func astBinding(rule *datalog.Rule) binding {
	b := binding{bound: map[string]bool{}, cmpVars: map[string]bool{}}

	// Positive occurrences: positive atoms (and UDF atoms) bind all their
	// variables; FuncApp terms are positive functional lookups wherever they
	// appear, including inside negated atoms and rule heads.
	for _, l := range rule.Body {
		switch l.Kind {
		case datalog.LitAtom:
			datalog.AtomVars(l.Atom, b.bound)
		case datalog.LitNeg:
			for _, t := range l.Atom.Args {
				funcAppVars(t, b.bound)
			}
		case datalog.LitCmp:
			datalog.VarsOf(l.L, b.cmpVars)
			datalog.VarsOf(l.R, b.cmpVars)
			funcAppVars(l.L, b.bound)
			funcAppVars(l.R, b.bound)
		}
	}
	for _, h := range rule.Heads {
		for _, t := range h.Args {
			funcAppVars(t, b.bound)
		}
	}
	// Transitive "=" bindings: X = <expr over bound vars> binds X (and
	// symmetrically), to a fixpoint.
	changed := true
	for changed {
		changed = false
		for _, l := range rule.Body {
			if l.Kind != datalog.LitCmp || l.Op != "=" {
				continue
			}
			lv := map[string]bool{}
			rv := map[string]bool{}
			datalog.VarsOf(l.L, lv)
			datalog.VarsOf(l.R, rv)
			if allIn(lv, b.bound) && !allIn(rv, b.bound) {
				for v := range rv {
					if !b.bound[v] {
						b.bound[v] = true
						changed = true
					}
				}
			}
			if allIn(rv, b.bound) && !allIn(lv, b.bound) {
				for v := range lv {
					if !b.bound[v] {
						b.bound[v] = true
						changed = true
					}
				}
			}
		}
	}
	return b
}

// funcAppVars collects variables nested inside FuncApp terms (positive
// functional lookups) into set, leaving top-level variables alone.
func funcAppVars(t datalog.Term, set map[string]bool) {
	switch tt := t.(type) {
	case datalog.FuncApp:
		for _, a := range tt.Args {
			datalog.VarsOf(a, set)
		}
	case datalog.BinExpr:
		funcAppVars(tt.L, set)
		funcAppVars(tt.R, set)
	}
}

// headNeedVars returns the head variables that require a binding: top-level
// variables and variables inside arithmetic expressions. Variables nested
// in FuncApps are functional lookups and bind themselves.
func headNeedVars(h *datalog.Atom) map[string]bool {
	need := map[string]bool{}
	var walk func(t datalog.Term)
	walk = func(t datalog.Term) {
		switch tt := t.(type) {
		case datalog.Var:
			need[tt.Name] = true
		case datalog.BinExpr:
			walk(tt.L)
			walk(tt.R)
		}
	}
	for _, t := range h.Args {
		walk(t)
	}
	return need
}

// topLevelVars returns the variables appearing directly as atom arguments
// (not nested inside FuncApps).
func topLevelVars(a *datalog.Atom) map[string]bool {
	out := map[string]bool{}
	for _, t := range a.Args {
		if v, ok := t.(datalog.Var); ok {
			out[v.Name] = true
		}
	}
	return out
}

// isEntityExistential reports whether v is a head-existential: some head
// atom is a single-argument entity-type membership over exactly v, so the
// engine mints a fresh entity for it.
func isEntityExistential(rule *datalog.Rule, v string, cat *engine.Catalog) bool {
	for _, h := range rule.Heads {
		if h.Functional() || len(h.Args) != 1 {
			continue
		}
		if hv, ok := h.Args[0].(datalog.Var); ok && hv.Name == v {
			if s := cat.Schema(h.ConcreteName()); s != nil && s.IsEntity {
				return true
			}
		}
	}
	return false
}

func allIn(vars, set map[string]bool) bool {
	for v := range vars {
		if !set[v] {
			return false
		}
	}
	return true
}

func sortedVars(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// describePlan renders a planned step list in evaluation order.
func describePlan(steps []engine.PlanStep) []string {
	out := make([]string, len(steps))
	for i, s := range steps {
		out[i] = describePlanStep(s)
	}
	return out
}

func describePlanStep(s engine.PlanStep) string {
	switch s.Kind {
	case engine.StepCmp:
		return fmt.Sprintf("%s %s %s", s.L, s.Op, s.R)
	case engine.StepNeg:
		return "!" + s.Atom.String()
	case engine.StepKindCheck:
		return s.Pred + "(...)"
	default:
		return s.Atom.String()
	}
}
