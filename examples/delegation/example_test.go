// Package delegation demonstrates authoring a custom trust policy (paper
// §6.1): per-predicate delegation where creditscore facts are accepted only
// from the credit agency "CA", enforced both by the import rule and by a
// constraint restricting who may ever be delegated that predicate. Run it
// with go test -v ./examples/delegation.
package delegation_test

import (
	"errors"
	"fmt"
	"log"

	"secureblox/internal/engine"
	"secureblox/internal/generics"
)

const query = `
	creditscore(P, S) -> string(P), int(S).
	purchase(P) -> string(P).
	exportable('creditscore).

	// local business logic: approve purchases for good credit
	approved(P) <- purchase(P), creditscore(P, S), S > 650.

	// trust configuration: only the credit agency, and provably nobody else
	trustworthyPerPred['creditscore](#"CA").
	trustworthyPerPred['creditscore](U) -> U = #"CA".
`

// The says policy plus per-predicate delegated import — written by the
// user, not baked into the runtime.
const policy = `
	says[T]=ST, predicate(ST),
	` + "`" + `{
		ST(P1, P2, V*) -> principal(P1), principal(P2), types[T](V*).
	}
	<-- predicate(T), exportable(T).

	` + "`" + `{
		T(V*) <- says[T](P, self[], V*), trustworthyPerPred[T](P).
	} <-- predicate(T), exportable(T).
`

func Example() {
	gc := generics.NewCompiler()
	if err := gc.AddPolicy(policy); err != nil {
		log.Fatal(err)
	}
	res, err := gc.Compile(query)
	if err != nil {
		log.Fatal(err)
	}
	ws := engine.NewWorkspace(nil)
	if err := ws.Install(res.Program); err != nil {
		log.Fatal(err)
	}
	if _, err := ws.AssertProgramFacts(`
		self[]=#me. principal(#me). principal(#"CA"). principal(#rando).
		purchase("alice"). purchase("bob").
	`); err != nil {
		log.Fatal(err)
	}

	// The credit agency reports scores: imported.
	if _, err := ws.AssertProgramFacts(`
		says['creditscore](#"CA", #me, "alice", 720).
		says['creditscore](#"CA", #me, "bob", 480).
	`); err != nil {
		log.Fatal(err)
	}
	// A random principal reports a fake score: said, but never imported.
	if _, err := ws.AssertProgramFacts(`says['creditscore](#rando, #me, "bob", 800).`); err != nil {
		log.Fatal(err)
	}
	fmt.Println("creditscore (only CA's facts imported):")
	for _, t := range ws.Tuples("creditscore") {
		fmt.Println(" ", t)
	}
	fmt.Println("approved purchases:")
	for _, t := range ws.Tuples("approved") {
		fmt.Println(" ", t)
	}

	// Attempting to widen the delegation violates the local constraint.
	_, err = ws.AssertProgramFacts(`trustworthyPerPred['creditscore](#rando).`)
	var cv *engine.ConstraintViolation
	if !errors.As(err, &cv) {
		log.Fatalf("expected a constraint violation, got %v", err)
	}
	fmt.Println("\ndelegating creditscore to anyone else is rejected:")
	fmt.Println(" ", err)
	// Output:
	// creditscore (only CA's facts imported):
	//   ("alice", 720)
	//   ("bob", 480)
	// approved purchases:
	//   ("alice")
	//
	// delegating creditscore to anyone else is rejected:
	//   constraint violation: trustworthyPerPred['creditscore](U) -> U = #CA. (U=#rando)
}
