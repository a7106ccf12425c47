// Package quickstart compiles a query together with a customizable says
// policy via BloxGenerics, installs it into a workspace, and watches the
// generated integrity constraint authenticate principals — the paper's §3
// example in thirty lines of API. Run it with go test -v ./examples/quickstart.
package quickstart_test

import (
	"fmt"
	"log"

	"secureblox/internal/engine"
	"secureblox/internal/generics"
)

const query = `
	link(X, Y) -> node(X), node(Y).
	reachable(X, Y) -> node(X), node(Y).
	exportable('reachable).

	reachable(X, Y) <- link(X, Y).
	reachable(X, Y) <- link(X, Z), reachable(Z, Y).
`

// The paper's §3.2 policy: says maps any exportable predicate T to a "said"
// version whose principals must be known, plus a benign-world import rule.
const policy = `
	says[T]=ST, predicate(ST),
	` + "`" + `{
		ST(P1, P2, V*) -> principal(P1), principal(P2), types[T](V*).
	}
	<-- predicate(T), exportable(T).

	` + "`" + `{ T(V*) <- says[T](P, self[], V*). } <-- predicate(T), exportable(T).
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
	fmt.Println("--- code generated by BloxGenerics ---")
	fmt.Print(res.GeneratedSrc)

	ws := engine.NewWorkspace(nil)
	if err := ws.Install(res.Program); err != nil {
		log.Fatal(err)
	}
	if _, err := ws.AssertProgramFacts(`
		self[]=#me. principal(#me). principal(#alice).
		link(@"10.0.0.1:7000", @"10.0.0.2:7000").
	`); err != nil {
		log.Fatal(err)
	}

	// A known principal's advertisement is accepted and imported.
	if _, err := ws.AssertProgramFacts(
		`says['reachable](#alice, #me, @"10.0.0.2:7000", @"10.0.0.3:7000").`); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- reachable after alice's advertisement ---")
	for _, t := range ws.Tuples("reachable") {
		fmt.Println(" ", t)
	}

	// An unknown principal violates the generated constraint; the whole
	// transaction rolls back.
	_, err = ws.AssertProgramFacts(
		`says['reachable](#mallory, #me, @"10.0.0.9:7000", @"10.0.0.9:7000").`)
	fmt.Println("\n--- mallory's advertisement ---")
	fmt.Println("rejected:", err)
	fmt.Printf("reachable count unchanged: %d\n", ws.Count("reachable"))
	// Output:
	// --- code generated by BloxGenerics ---
	// says$reachable(P1, P2, V0, V1) -> principal(P1), principal(P2), node(V0), node(V1).
	// reachable(V0, V1) <- says['reachable](P, self[], V0, V1).
	//
	// --- reachable after alice's advertisement ---
	//   (@"10.0.0.1:7000", @"10.0.0.2:7000")
	//   (@"10.0.0.2:7000", @"10.0.0.3:7000")
	//   (@"10.0.0.1:7000", @"10.0.0.3:7000")
	//
	// --- mallory's advertisement ---
	// rejected: constraint violation: says$reachable(P1, P2, V0, V1) -> principal(P1), principal(P2), node(V0), node(V1). (P1=#mallory, P2=#me, V0=@"10.0.0.9:7000", V1=@"10.0.0.9:7000")
	// reachable count unchanged: 3
}
