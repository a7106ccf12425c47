package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"secureblox/internal/datalog"
)

// TestParallelMatchesSequential: on randomized programs (recursive rules,
// negation over base predicates, constants, inequality filters), the
// stratified parallel fixpoint must produce exactly the same extents as the
// classic sequential path — through asserts, retractions (DRed), and asserts
// after that. Run under -race this also exercises the workers' read-only
// discipline against relation storage.
func TestParallelMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomProgram(rng)
		prog, err := datalog.Parse(src)
		if err != nil {
			t.Fatalf("generator produced unparsable program:\n%s\n%v", src, err)
		}
		seq := NewWorkspace(nil)
		par := NewWorkspace(nil)
		par.Parallelism = 4
		if err := seq.Install(prog); err != nil {
			t.Fatalf("install (sequential):\n%s\n%v", src, err)
		}
		if err := par.Install(prog); err != nil {
			t.Fatalf("install (parallel):\n%s\n%v", src, err)
		}
		facts := randomBaseFacts(rng, 20+rng.Intn(20))
		for len(facts) > 0 {
			n := 1 + rng.Intn(len(facts))
			batch := facts[:n]
			facts = facts[n:]
			if _, err := seq.Assert(batch); err != nil {
				t.Fatalf("assert (sequential): %v", err)
			}
			if _, err := par.Assert(batch); err != nil {
				t.Fatalf("assert (parallel): %v", err)
			}
		}
		if !sameExtents(t, seq, par) {
			t.Logf("divergence after asserts, program:\n%s", src)
			return false
		}
		for _, name := range []string{"e", "f", "g"} {
			tuples := seq.Tuples(name)
			if len(tuples) == 0 {
				continue
			}
			victim := tuples[rng.Intn(len(tuples))]
			if err := seq.Retract([]Fact{{Pred: name, Tuple: victim}}); err != nil {
				t.Fatalf("retract (sequential): %v", err)
			}
			if err := par.Retract([]Fact{{Pred: name, Tuple: victim}}); err != nil {
				t.Fatalf("retract (parallel): %v", err)
			}
		}
		if !sameExtents(t, seq, par) {
			t.Logf("divergence after retraction, program:\n%s", src)
			return false
		}
		more := randomBaseFacts(rng, 8)
		if _, err := seq.Assert(more); err != nil {
			t.Fatalf("assert (sequential): %v", err)
		}
		if _, err := par.Assert(more); err != nil {
			t.Fatalf("assert (parallel): %v", err)
		}
		if !sameExtents(t, seq, par) {
			t.Logf("divergence after post-retraction asserts, program:\n%s", src)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestStrictStratificationRejectsMutualNegation: two rules mutually
// recursive through negation have no stratified model; strict mode must
// refuse to install them — with stratified parallel evaluation this guard
// is what keeps every wave's negated reads closed below the wave.
func TestStrictStratificationRejectsMutualNegation(t *testing.T) {
	prog, err := datalog.Parse(`
		p(X) <- q(X), !r(X).
		r(X) <- s(X), !p(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkspace(nil)
	w.StrictStratification = true
	if err := w.Install(prog); err == nil {
		t.Fatal("mutually recursive negation was accepted under StrictStratification")
	}
	// Non-strict mode records diagnostics instead.
	w2 := NewWorkspace(nil)
	if err := w2.Install(prog); err != nil {
		t.Fatalf("diagnostic mode should accept: %v", err)
	}
	if len(w2.Unstratified) == 0 {
		t.Fatal("expected unstratified diagnostics")
	}
}

// renderExtents renders every predicate's extent as sorted text — a strict,
// byte-level equality check between two workspaces.
func renderExtents(w *Workspace) string {
	var sb strings.Builder
	for _, p := range w.Predicates() {
		lines := make([]string, 0, w.Count(p))
		for _, tup := range w.Tuples(p) {
			lines = append(lines, p+tup.String())
		}
		sort.Strings(lines)
		for _, l := range lines {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestSingleRuleStrataParallelismOne: a chain of single-rule strata must
// produce byte-identical state at Parallelism=1 (parallel machinery, no
// concurrency) and on the sequential path.
func TestSingleRuleStrataParallelismOne(t *testing.T) {
	src := `
		t1(X,Y) <- base(X,Y), X != Y.
		t2(X,Y) <- t1(X,Y), lab(Y).
		t3(X,Z) <- t2(X,Y), t2(Y,Z).
		t4(X) <- t3(X,_), !blocked(X).
	`
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	build := func(parallelism int) *Workspace {
		w := NewWorkspace(nil)
		w.Parallelism = parallelism
		if err := w.Install(prog); err != nil {
			t.Fatalf("install: %v", err)
		}
		rng := rand.New(rand.NewSource(7))
		var facts []Fact
		for i := 0; i < 120; i++ {
			facts = append(facts, Fact{Pred: "base", Tuple: datalog.Tuple{
				datalog.Int64(int64(rng.Intn(30))), datalog.Int64(int64(rng.Intn(30)))}})
		}
		for i := 0; i < 30; i += 2 {
			facts = append(facts, Fact{Pred: "lab", Tuple: datalog.Tuple{datalog.Int64(int64(i))}})
		}
		for i := 0; i < 30; i += 5 {
			facts = append(facts, Fact{Pred: "blocked", Tuple: datalog.Tuple{datalog.Int64(int64(i))}})
		}
		if _, err := w.Assert(facts); err != nil {
			t.Fatalf("assert: %v", err)
		}
		return w
	}
	seq := build(0)
	par := build(1)
	if got, want := renderExtents(par), renderExtents(seq); got != want {
		t.Fatalf("Parallelism=1 state differs from sequential:\n--- parallel ---\n%s--- sequential ---\n%s", got, want)
	}
	// Each rule is its own stratum here (no mutual recursion), and the
	// chain forces distinct condensation levels.
	if got := len(par.StrataInfo()); got != 4 {
		t.Fatalf("expected 4 single-rule strata, got %d: %v", got, par.StrataInfo())
	}
}

// TestStrataLevelsRespectDependencies: every rule must sit at a strictly
// higher level than the strata it depends on, and mutually recursive rules
// must share one stratum.
func TestStrataLevelsRespectDependencies(t *testing.T) {
	prog, err := datalog.Parse(`
		odd(X) <- succ(_,X), even2(X).
		even2(Y) <- odd(X), succ(X,Y).
		top(X) <- odd(X), !blocked(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkspace(nil)
	if err := w.Install(prog); err != nil {
		t.Fatalf("install: %v", err)
	}
	info := w.StrataInfo()
	if len(info) != 2 {
		t.Fatalf("expected 2 strata (odd/even2 cycle + top), got %d: %v", len(info), info)
	}
	if len(info[0]) != 2 {
		t.Fatalf("expected the mutually recursive pair in the first stratum, got %v", info)
	}
	if len(info[1]) != 1 || !strings.Contains(fmt.Sprint(info[1]), "top") {
		t.Fatalf("expected top alone in the second stratum, got %v", info)
	}
}
