package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"secureblox/internal/datalog"
)

// sharedFragment adds to a random program what random programs lack and a
// shared program must keep valid in every workspace: text constants and
// string +, an entity type with a head existential, an aggregate, and a UDF
// each workspace binds from its own registry.
const sharedFragment = `
	hub(H) -> .
	tag(X, "hot") <- e(X, _), X > 1.
	label(X, S) <- tag(X, T), S = T + "!".
	hub(H), hubOf[H] = X <- g(X, _).
	most[X] = C <- agg<< C = max(V) >> e(X, V).
	twice(X, Y) <- f(X, _, _), double(X, Y).
`

// doubleUDFs returns a registry of its own holding double(X, Y): Y = 2X.
func doubleUDFs() *UDFRegistry {
	reg := NewUDFRegistry()
	if err := reg.Register(&FuncUDF{FName: "double", InArity: 1, OutArity: 1,
		Fn: func(_ string, in []datalog.Value) (datalog.Value, bool, error) {
			return datalog.Int64(2 * in[0].Int), true, nil
		}}); err != nil {
		panic(err)
	}
	return reg
}

// TestSharedProgramConcurrentWorkspaces: k workspaces bound to one compiled
// program run seeded random asserts — some rolled back by the program's
// constraint, some malformed — and retractions at the same time, and after
// every step each holds exactly what a workspace with a privately compiled
// copy of the program holds after the same step, tuple for tuple and in the
// same order. Under -race it is also the proof that binding and running never
// write the shared program.
func TestSharedProgramConcurrentWorkspaces(t *testing.T) {
	const k, steps = 4, 30
	// What the runs exercised, over all seeds: the test proves nothing unless
	// transactions both commit and roll back and the fragment derives.
	var mu sync.Mutex
	var committed, rejected, derived int
	for seed := int64(1); seed <= 6; seed++ {
		src := randomProgram(rand.New(rand.NewSource(seed))) + randomConstraint(rand.New(rand.NewSource(seed))) + sharedFragment
		prog, err := datalog.Parse(src)
		if err != nil {
			t.Fatalf("program:\n%s\n%v", src, err)
		}
		shared, err := Compile(prog, doubleUDFs())
		if err != nil {
			t.Fatalf("program:\n%s\n%v", src, err)
		}
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*100 + int64(i)))
				bound, private := NewWorkspace(doubleUDFs()), NewWorkspace(doubleUDFs())
				if err := bound.Bind(shared); err != nil {
					t.Errorf("bind: %v", err)
					return
				}
				if err := private.Install(prog); err != nil {
					t.Errorf("install: %v", err)
					return
				}
				c, r := 0, 0
				defer func() {
					mu.Lock()
					committed, rejected, derived = committed+c, rejected+r, derived+bound.Count("label")+bound.Count("hub")+bound.Count("twice")
					mu.Unlock()
				}()
				for s := 0; s < steps; s++ {
					what, errB, errP := sharedStep(rng, bound, private)
					if errB == nil {
						c++
					} else {
						r++
					}
					if (errB == nil) != (errP == nil) {
						t.Errorf("seed %d, workspace %d, step %d (%s): bound %v, private %v", seed, i, s, what, errB, errP)
						return
					}
					if diff := sameWorkspaces(bound, private); diff != "" {
						t.Errorf("seed %d, workspace %d, step %d (%s): %s\nprogram:\n%s", seed, i, s, what, diff, src)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	if committed == 0 || rejected == 0 || derived == 0 {
		t.Errorf("%d transactions committed, %d rolled back, %d fragment tuples derived: want some of each", committed, rejected, derived)
	}
	t.Logf("%d transactions committed, %d rolled back, %d fragment tuples derived", committed, rejected, derived)
}

// sharedStep applies one random transaction to both workspaces: a batch of
// base facts (which the constraint may reject), a batch with a malformed fact
// (always rejected), or the retraction of a stored base fact.
func sharedStep(rng *rand.Rand, a, b *Workspace) (string, error, error) {
	switch r := rng.Intn(6); {
	case r == 0:
		bad := append(randomBaseFacts(rng, 2), Fact{Pred: "e", Tuple: datalog.Tuple{datalog.Int64(1)}})
		_, errA := a.Assert(bad)
		_, errB := b.Assert(bad)
		return "malformed assert", errA, errB
	case r == 1:
		name := []string{"e", "f", "g"}[rng.Intn(3)]
		tuples := a.Tuples(name)
		if len(tuples) == 0 {
			return "nothing to retract", nil, nil
		}
		victim := []Fact{{Pred: name, Tuple: tuples[rng.Intn(len(tuples))]}}
		return "retract " + victim[0].String(), a.Retract(victim), b.Retract(victim)
	default:
		batch := randomBaseFacts(rng, 1+rng.Intn(4))
		_, errA := a.Assert(batch)
		_, errB := b.Assert(batch)
		return fmt.Sprint("assert ", batch), errA, errB
	}
}

// sameWorkspaces compares two workspaces predicate by predicate, through Tuples:
// "" when every extent is equal, in order.
func sameWorkspaces(a, b *Workspace) string {
	pa, pb := fmt.Sprint(a.Predicates()), fmt.Sprint(b.Predicates())
	if pa != pb {
		return fmt.Sprintf("predicates %s vs %s", pa, pb)
	}
	for _, p := range a.Predicates() {
		if ta, tb := fmt.Sprint(a.Tuples(p)), fmt.Sprint(b.Tuples(p)); ta != tb {
			return fmt.Sprintf("%s: %s vs %s", p, ta, tb)
		}
	}
	return ""
}
