package engine

import (
	"fmt"
	"sync"

	"secureblox/internal/datalog"
	"secureblox/internal/metrics"
)

// Parallel fixpoint evaluation. Each semi-naïve round walks the rule strata
// level by level (see strata.go); within a level the strata are mutually
// independent, so every applicable (rule, delta step, delta partition)
// becomes a task on a worker pool. Workers only read relation storage — the
// row store's read paths are safe under any number of concurrent readers as
// long as nobody writes — and buffer the tuples they derive. After the wave
// the calling goroutine alone merges the buffers through insertDerived, so the
// undo log, tuple blocks, functional-dependency checks, and index maintenance
// all stay single-writer and race-free.

// minPartTuples is the smallest delta slice worth splitting: below twice
// this, partitioning overhead beats the parallelism it buys.
const minPartTuples = 16

// derived is one head tuple produced by a worker, waiting for the
// single-writer commit phase: its values start at vals[off] of the worker's
// flat buffer, and are copied into the workspace's tuple blocks only if the
// commit finds the tuple new.
type derived struct {
	rule *CompiledRule
	hi   int
	off  int
}

// workerCtx is one worker's private evaluation state: a per-rule frame pool,
// the output buffer, and local counters merged into the workspace when the
// pool stops. No field is ever touched by two goroutines at the same time.
type workerCtx struct {
	env    evalEnv
	stats  metrics.EngineStats
	frames map[int]*frame
	out    []derived
	vals   []datalog.Value
	err    error
}

// evalTask evaluates one of a rule's delta-first plans over one partition of
// its delta tuples — the same plans the sequential fixpoint runs.
type evalTask struct {
	r     *CompiledRule
	plan  []step
	delta []datalog.Tuple
}

// parallelRun is the worker pool serving one fixpoint call.
type parallelRun struct {
	w     *Workspace
	ctxs  []*workerCtx
	tasks chan evalTask
	wg    sync.WaitGroup
}

func newParallelRun(w *Workspace) *parallelRun {
	n := w.Parallelism
	if n < 1 {
		n = 1
	}
	p := &parallelRun{w: w, tasks: make(chan evalTask, 4*n)}
	for i := 0; i < n; i++ {
		ctx := &workerCtx{frames: make(map[int]*frame)}
		ctx.env = evalEnv{w: w, stats: &ctx.stats}
		p.ctxs = append(p.ctxs, ctx)
		go p.worker(ctx)
	}
	return p
}

// stop shuts the pool down and folds the workers' counters into the
// workspace. Safe to call only after the last wave's wg.Wait returned (the
// wait synchronizes the workers' final counter writes with this read).
func (p *parallelRun) stop() {
	close(p.tasks)
	for _, ctx := range p.ctxs {
		p.w.stats = p.w.stats.Add(ctx.stats)
	}
}

func (p *parallelRun) worker(ctx *workerCtx) {
	for task := range p.tasks {
		p.exec(ctx, task)
		p.wg.Done()
	}
}

func (p *parallelRun) exec(ctx *workerCtx, task evalTask) {
	if ctx.err != nil {
		return // wave already failed; drain remaining tasks cheaply
	}
	metrics.EngineWorkersAdd(1)
	defer metrics.EngineWorkersAdd(-1)
	r := task.r
	f := ctx.frames[r.id]
	if f == nil {
		f = newFrame(r.slotNames)
		ctx.frames[r.id] = f
	}
	if err := ctx.env.runDelta(task.plan, task.delta, f, func(f *frame) error { return ctx.emit(r, f) }); err != nil {
		ctx.err = err
	}
}

// emit buffers the head tuples of one complete body binding. Probing
// headRels here is a read of pre-wave state — it filters the bulk of
// rederivations early; the commit phase deduplicates the rest.
func (ctx *workerCtx) emit(r *CompiledRule, f *frame) error {
	for hi := range r.heads {
		off := len(ctx.vals)
		cargs := r.cheads[hi]
		for i := range cargs {
			v, err := evalCterm(&cargs[i], f)
			if err != nil {
				return fmt.Errorf("rule %s: head %s: %w", r.src, r.heads[hi], err)
			}
			ctx.vals = append(ctx.vals, v)
		}
		if _, ok := r.headRels[hi].Lookup(ctx.vals[off:]); ok {
			ctx.vals = ctx.vals[:off]
			continue
		}
		ctx.out = append(ctx.out, derived{rule: r, hi: hi, off: off})
	}
	return nil
}

// runWave evaluates a batch of independent tasks to completion, then merges
// every worker's derivations into relation storage on the calling goroutine.
func (p *parallelRun) runWave(t *txn, tasks []evalTask, next map[string][]datalog.Tuple) error {
	p.wg.Add(len(tasks))
	for _, task := range tasks {
		p.tasks <- task
	}
	p.wg.Wait()
	for _, ctx := range p.ctxs {
		if ctx.err != nil {
			return ctx.err
		}
	}
	for _, ctx := range p.ctxs {
		for _, d := range ctx.out {
			head := d.rule.heads[d.hi]
			vals := ctx.vals[d.off : d.off+len(head.Args)]
			if err := p.w.insertDerived(t, head.ConcreteName(), d.rule.headRels[d.hi], vals, next); err != nil {
				return err
			}
		}
		ctx.out, ctx.vals = ctx.out[:0], ctx.vals[:0]
	}
	return nil
}

// partitionByHash splits delta tuples into disjoint hash-range buckets, one
// task per bucket, so workers never derive from overlapping inputs. Small
// deltas stay whole.
func partitionByHash(tuples []datalog.Tuple, parts int) [][]datalog.Tuple {
	if parts <= 1 || len(tuples) < 2*minPartTuples {
		return [][]datalog.Tuple{tuples}
	}
	out := make([][]datalog.Tuple, parts)
	for _, t := range tuples {
		b := int(t.Hash() % uint64(parts))
		out[b] = append(out[b], t)
	}
	res := out[:0]
	for _, b := range out {
		if len(b) > 0 {
			res = append(res, b)
		}
	}
	return res
}

// fixpointParallel is the stratified multi-worker fixpoint. Rules that mint
// entities, call UDFs, or aggregate are not parSafe; they run on the classic
// single-threaded path after their level's parallel wave commits, preserving
// their sequential semantics.
func (w *Workspace) fixpointParallel(t *txn, delta map[string][]datalog.Tuple) error {
	run := newParallelRun(w)
	defer run.stop()
	nParts := w.Parallelism
	if nParts < 1 {
		nParts = 1
	}
	var tasks []evalTask
	for len(delta) > 0 {
		w.stats.FixpointRounds++
		next := w.deltaMap()
		for _, wave := range w.waves {
			tasks = tasks[:0]
			var seqRules []*CompiledRule
			for _, si := range wave {
				st := &w.strata[si]
				hasWork := false
				for _, r := range st.rules {
					for _, plan := range r.deltaPlans {
						tuples := delta[plan[0].pred]
						if tuples == nil {
							continue
						}
						hasWork = true
						if !r.parSafe {
							seqRules = append(seqRules, r)
							break
						}
						for _, part := range partitionByHash(tuples, nParts) {
							tasks = append(tasks, evalTask{r: r, plan: plan, delta: part})
						}
					}
				}
				if hasWork {
					w.stats.StrataEvaluated++
				}
			}
			if len(tasks) > 0 {
				if err := run.runWave(t, tasks, next); err != nil {
					return err
				}
			}
			for _, r := range seqRules {
				if err := w.evalRuleDeltas(t, r, delta, next); err != nil {
					return err
				}
			}
		}
		w.roundAggs = mergeRuleLists(w.roundAggs[:0], w.aggByBody, delta)
		for _, r := range w.roundAggs {
			if err := w.recomputeAgg(t, r, next); err != nil {
				return err
			}
		}
		w.releaseDelta(delta)
		delta = next
	}
	w.releaseDelta(delta)
	return nil
}
