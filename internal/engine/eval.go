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
	if l.kind != r.kind {
		return false, fmt.Errorf("ordered comparison %s between %s and %s", op, l.kind, r.kind)
	}
	c := cmp.Compare(int64(l.bits), int64(r.bits))
	if hasText(l.kind) {
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

// runDelta evaluates a delta-first plan: its leading step ranges over the
// given rows of rel — a round's delta, or a transaction's whole list — in one
// outer loop, counted as a leading scan, every later step over stored
// relations. The work is proportional to the delta and what it joins with,
// never to the relation the delta belongs to. A row the transaction deleted
// again after listing it still holds its tuple (rowNew), and is ranged over
// like the rest.
func (w *Workspace) runDelta(plan []step, rel *Relation, rows []uint32, f *frame, emit func(*frame) error) error {
	w.stats.LeadingScans++
	w.stats.TuplesScanned += int64(len(rows))
	args := plan[0].args
	for _, id := range rows {
		m := f.mark()
		if unifyArgs(args, rel.row(id), f) {
			if err := w.runSteps(plan, 1, f, emit); err != nil {
				f.undo(m)
				return err
			}
		}
		f.undo(m)
	}
	return nil
}

// candidates iterates stored tuples that may match the step under the current
// frame: a probe of the index its compile-time bound-column signature selected
// (functional, primary or secondary), or — when the step has no index — a scan
// of the relation, which the caller's unifyArgs filters. A scan is a planned
// leading scan only when no column is bound; with bound columns it means the
// plan and the runtime disagree, and is counted as a fallback.
func (w *Workspace) candidates(s *step, f *frame, fn func([]cell) bool) {
	if s.probeIdx != nil {
		var buf [8]cell
		if vals, ok := gatherCols(s.args, s.probeCols, f, buf[:0]); ok {
			w.stats.IndexProbes++
			s.rel.probe(s.probeIdx, vals, fn)
			return
		}
	}
	if len(s.boundCols) == 0 {
		w.stats.LeadingScans++
	} else {
		w.stats.FullScanFallbacks++
	}
	s.rel.each(fn)
}

// negHolds decides a negated atom. The planner only schedules negations once
// every variable is bound, so each argument is a value or a wildcard: a
// negation with any ground argument is one index probe, never a relation scan.
func (w *Workspace) negHolds(s *step, f *frame) bool {
	rel := s.rel
	if len(s.boundCols) == 0 {
		// all arguments are wildcards: any tuple at all matches
		return rel.Len() > 0
	}
	if s.probeIdx != nil {
		var buf [8]cell
		if vals, ok := gatherCols(s.args, s.probeCols, f, buf[:0]); ok {
			w.stats.IndexProbes++
			return rel.probeExists(s.probeIdx, vals)
		}
	}
	// Plan/runtime disagreement: scan and unify, and register the fallback so
	// the ==0 guards see it.
	w.stats.FullScanFallbacks++
	found := false
	rel.each(func(t []cell) bool {
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
		var iterErr error
		w.candidates(s, f, func(t []cell) bool {
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
		lv, lok := w.valueOrEval(s.cl, f)
		rv, rok := w.valueOrEval(s.cr, f)
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
		// computes comes back interned.
		args, mask := s.udfArgs, s.udfMask
		for j := range s.args {
			var c cell
			c, mask[j] = ctermValue(&s.args[j], f)
			args[j] = w.syms.value(c)
		}
		ok, err := s.udf.Eval(s.param, args, mask)
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
					f.bind(a.slot, w.syms.cell(args[j]))
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
		if !w.cat.CheckKind(s.typeName, w.syms.value(v)) {
			return nil
		}
		return w.runSteps(steps, i+1, f, emit)

	default:
		return fmt.Errorf("unknown step kind %d", s.kind)
	}
}
