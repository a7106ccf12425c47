package engine

import (
	"cmp"
	"fmt"
)

// compare applies a comparison operator to two values. Only an ordered
// comparison of text reads it.
func (w *Workspace) compare(op string, l, r cell) (bool, error) {
	switch op {
	case "=":
		return l == r, nil
	case "!=":
		return l != r, nil
	}
	if l.kind() != r.kind() {
		return false, fmt.Errorf("ordered comparison %s between %s and %s", op, l.kind(), r.kind())
	}
	c := cmp.Compare(int64(l.bits()), int64(r.bits()))
	if hasText(l.kind()) {
		c = w.syms.value(l).Compare(w.syms.value(r))
	}
	switch op {
	case "<":
		return c < 0, nil
	case "<=":
		return c <= 0, nil
	case ">":
		return c > 0, nil
	case ">=":
		return c >= 0, nil
	default:
		return false, fmt.Errorf("unknown comparison %s", op)
	}
}

// runDelta evaluates a plan: its location lookups once, then its leading step
// over the given rows of its relation — a round's delta, or a transaction's
// whole list — or, with rows nil, over the whole relation (a full
// evaluation), in one outer loop, counted as a leading scan, every later step
// over stored relations. Within a fixpoint round (Workspace.hide) a later
// match step skips the rows the round has stored, and one whose atom precedes
// the delta atom in the body the round's delta too: exact semi-naïve, so the
// round's plans find each binding once, and a binding that needs a row stored
// this round is the next round's to find. Over a delta the work is
// proportional to the delta and what it joins with, never to the relation the
// delta belongs to, and a row addressed to another location fails its
// unification. A missing location derives nothing. A row the transaction
// deleted again after listing it still holds its tuple (rowNew), and is ranged
// over like the rest. A plan no atom leads runs its steps once.
func (w *Workspace) runDelta(plan *deltaPlan, rows []uint32, f *frame, emit func(*frame) error) error {
	m := f.mark()
	defer f.undo(m)
	for i := range plan.pre {
		if !w.lookupOnce(&plan.pre[i], f) {
			return nil
		}
	}
	if !plan.led() {
		return w.runSteps(plan.steps, 0, f, emit)
	}
	w.stats.LeadingScans++
	rel, args := w.rels[plan.steps[0].rel], plan.steps[0].args
	var err error
	visit := func(row []cell) bool {
		w.stats.TuplesScanned++
		m := f.mark()
		if unifyArgs(args, row, f) {
			err = w.runSteps(plan.steps, 1, f, emit)
		}
		f.undo(m)
		return err == nil
	}
	if rows == nil {
		rel.each(0, visit)
	}
	for _, id := range rows {
		if !visit(rel.row(id)) {
			break
		}
	}
	return err
}

// lookupOnce binds a location lookup's variables from its one matching row,
// and reports whether there is one. The relation is functional and the key
// bound, so the first row that unifies is the only one. No rule derives into
// it, so it reads the whole relation.
func (w *Workspace) lookupOnce(s *step, f *frame) bool {
	found := false
	w.candidates(s, 0, f, func(t []cell) bool {
		w.stats.TuplesScanned++
		m := f.mark()
		if found = unifyArgs(s.args, t, f); !found {
			f.undo(m)
		}
		return !found
	})
	return found
}

// candidates iterates stored tuples that may match the step under the current
// frame, but for those whose flags meet hide: a probe of the index its
// compile-time bound-column signature selected (functional, primary or
// secondary), or — when the step has no index — a scan of the relation, which
// the caller's unifyArgs filters. A scan is a planned leading scan only when
// no column is bound; with bound columns it means the plan and the runtime
// disagree, and is counted as a fallback.
func (w *Workspace) candidates(s *step, hide uint8, f *frame, fn func([]cell) bool) {
	rel := w.rels[s.rel]
	if s.probe != noProbe {
		var buf [8]cell
		if vals, ok := gatherCols(s.args, s.probeCols, f, buf[:0]); ok {
			w.stats.IndexProbes++
			rel.probe(rel.idx[s.probe], vals, hide, fn)
			return
		}
	}
	if len(s.boundCols) == 0 {
		w.stats.LeadingScans++
	} else {
		w.stats.FullScanFallbacks++
	}
	rel.each(hide, fn)
}

// negHolds decides a negated atom. The planner only schedules negations once
// every variable is bound, so each argument is a value or a wildcard: a
// negation with any ground argument is one index probe, never a relation scan.
func (w *Workspace) negHolds(s *step, f *frame) bool {
	rel := w.rels[s.rel]
	if len(s.boundCols) == 0 {
		// all arguments are wildcards: any tuple at all matches
		return rel.Len() > 0
	}
	if s.probe != noProbe {
		var buf [8]cell
		if vals, ok := gatherCols(s.args, s.probeCols, f, buf[:0]); ok {
			w.stats.IndexProbes++
			return rel.probeExists(rel.idx[s.probe], vals)
		}
	}
	// Plan/runtime disagreement: scan and unify, and register the fallback so
	// the ==0 guards see it.
	w.stats.FullScanFallbacks++
	found := false
	rel.each(0, func(t []cell) bool {
		m := f.mark()
		found = unifyArgs(s.args, t, f)
		f.undo(m)
		return !found
	})
	return found
}

// runSteps executes steps[i:] under frame f, invoking emit for each
// complete solution. emit returning an error aborts evaluation.
func (w *Workspace) runSteps(steps []step, i int, f *frame, emit func(*frame) error) error {
	if i == len(steps) {
		return emit(f)
	}
	s := &steps[i]
	switch s.kind {
	case stepMatch:
		hide := w.hide
		if s.earlier && hide != 0 {
			hide |= rowDelta
		}
		var iterErr error
		w.candidates(s, hide, f, func(t []cell) bool {
			w.stats.TuplesScanned++
			m := f.mark()
			if unifyArgs(s.args, t, f) {
				if err := w.runSteps(steps, i+1, f, emit); err != nil {
					iterErr = err
					f.undo(m)
					return false
				}
			}
			f.undo(m)
			return true
		})
		return iterErr

	case stepNeg:
		if w.negHolds(s, f) {
			return nil
		}
		return w.runSteps(steps, i+1, f, emit)

	case stepCmp:
		lv, lok, err := w.valueOrEval(s.cl, f)
		if err != nil {
			return err
		}
		rv, rok, err := w.valueOrEval(s.cr, f)
		if err != nil {
			return err
		}
		if s.op == "=" {
			if lok && !rok && s.cr.kind == ctVar {
				m := f.mark()
				f.bind(s.cr.slot, lv)
				err := w.runSteps(steps, i+1, f, emit)
				f.undo(m)
				return err
			}
			if rok && !lok && s.cl.kind == ctVar {
				m := f.mark()
				f.bind(s.cl.slot, rv)
				err := w.runSteps(steps, i+1, f, emit)
				f.undo(m)
				return err
			}
		}
		if !lok || !rok {
			return fmt.Errorf("comparison %s %s %s has unbound operand", s.l, s.op, s.r)
		}
		ok, err := w.compare(s.op, lv, rv)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		return w.runSteps(steps, i+1, f, emit)

	case stepUDF:
		// The arguments go out as views of the intern table, and what Eval
		// computes comes back interned from a copy on the table's stack, since
		// Eval may reuse what a result views. The vectors are the workspace's: a
		// later UDF step of the plan reuses them only once this one has
		// interned everything Eval left there.
		args, mask := w.udfArgs[:len(s.args)], w.udfMask[:len(s.args)]
		for j := range s.args {
			var c cell
			c, mask[j] = ctermValue(&s.args[j], f)
			args[j] = w.syms.value(c)
		}
		ok, err := w.udfs[s.rel].Eval(s.param, args, mask)
		if err != nil {
			return fmt.Errorf("%s: %w", s.atom, err)
		}
		if !ok {
			return nil
		}
		// Eval has filtered on the positions that arrived bound; the others
		// now hold the completion, which binds their variables — or, where one
		// variable stands at two of them, must agree with itself.
		m := f.mark()
		for j := range s.args {
			if a := &s.args[j]; !mask[j] && a.kind == ctVar {
				if v, bound := f.get(a.slot); !bound {
					args[j].Str = w.syms.push(args[j].Str, "")
					c, err := w.syms.cell(args[j])
					if err != nil {
						f.undo(m)
						return err
					}
					f.bind(a.slot, c)
				} else if c, ok := w.syms.lookupCell(args[j]); !ok || v != c {
					f.undo(m)
					return nil
				}
			}
		}
		err = w.runSteps(steps, i+1, f, emit)
		f.undo(m)
		return err

	case stepKindCheck:
		v, err := w.eval(s.cchecked, f)
		if err != nil {
			return err
		}
		if !w.prog.cat.CheckKind(s.typeName, w.syms.value(v)) {
			return nil
		}
		return w.runSteps(steps, i+1, f, emit)

	default:
		return fmt.Errorf("unknown step kind %d", s.kind)
	}
}
