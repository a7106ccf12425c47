package generics

import (
	"fmt"
	"strings"
	"testing"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
)

// saysPolicy is the paper's §3.2 authentication policy, verbatim modulo
// ASCII quoting.
const saysPolicy = `
	says[T]=ST, predicate(ST),
	` + "`" + `{
		ST(P1, P2, V*) -> principal(P1), principal(P2), types[T](V*).
	}
	<-- predicate(T), exportable(T).
`

// trustAllPolicy is the paper's benign-world import rule.
const trustAllPolicy = "`" + `{ T(V*) <- says[T](P1, P2, V*). } <-- predicate(T), exportable(T).`

const reachableQuery = `
	link(X, Y) -> node(X), node(Y).
	reachable(X, Y) -> node(X), node(Y).
	reachable(X,Y) <- link(X,Y).
	exportable('reachable).
`

func compileWith(t *testing.T, query string, policies ...string) *Result {
	t.Helper()
	c := NewCompiler()
	for _, p := range policies {
		if err := c.AddPolicy(p); err != nil {
			t.Fatalf("AddPolicy: %v", err)
		}
	}
	res, err := c.Compile(query)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return res
}

func TestSaysMappingGenerated(t *testing.T) {
	res := compileWith(t, reachableQuery, saysPolicy)
	found := false
	for _, tup := range res.MetaFacts["says"] {
		if tup[0] == "reachable" && tup[1] == "says$reachable" {
			found = true
		}
	}
	if !found {
		t.Fatalf("says mapping missing: %v", res.MetaFacts["says"])
	}
	// link is not exportable: no mapping
	for _, tup := range res.MetaFacts["says"] {
		if tup[0] == "link" {
			t.Error("says should not be generated for non-exportable link")
		}
	}
	// the generated constraint must mention principal types and node arg types
	if !strings.Contains(res.GeneratedSrc, "says$reachable") {
		t.Errorf("generated source missing concrete predicate:\n%s", res.GeneratedSrc)
	}
	if !strings.Contains(res.GeneratedSrc, "principal(P1)") || !strings.Contains(res.GeneratedSrc, "node(V0)") {
		t.Errorf("generated constraint incomplete:\n%s", res.GeneratedSrc)
	}
}

func TestGeneratedProgramInstallsAndAuthenticates(t *testing.T) {
	res := compileWith(t, reachableQuery, saysPolicy, trustAllPolicy)
	w := engine.NewWorkspace(nil)
	if err := w.Install(res.Program); err != nil {
		t.Fatalf("install generated program: %v", err)
	}
	if _, err := w.AssertProgramFacts(`principal(#alice). principal(#bob).`); err != nil {
		t.Fatal(err)
	}
	// a said fact from a known principal flows into reachable (trust-all)
	if _, err := w.AssertProgramFacts(`says['reachable](#alice, #bob, @"n1:1", @"n2:1").`); err != nil {
		t.Fatal(err)
	}
	if w.Count("reachable") != 1 {
		t.Fatalf("trust-all import failed: %v", w.Tuples("reachable"))
	}
	// an unknown principal violates the generated principal constraint
	if _, err := w.AssertProgramFacts(`says['reachable](#mallory, #bob, @"n1:1", @"n2:1").`); err == nil {
		t.Fatal("unknown principal should be rejected by the generated constraint")
	}
	if w.Count("reachable") != 1 {
		t.Error("rejected batch leaked derivations")
	}
}

func TestGenericConstraintRejectsUnguardedSays(t *testing.T) {
	// Paper §4.1.4: with the constraint says(P,SP) --> exportable(P), the
	// unguarded rule (applying says to every predicate) must be rejected...
	unguarded := `
		says[T]=ST, predicate(ST),
		` + "`" + `{ ST(P1, P2, V*) -> principal(P1), principal(P2). }
		<-- predicate(T).
	`
	exportableGuard := `says(P, SP) --> exportable(P).`
	c := NewCompiler()
	if err := c.AddPolicy(unguarded); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPolicy(exportableGuard); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(reachableQuery); err == nil {
		t.Fatal("unguarded says must violate the generic constraint")
	} else if !strings.Contains(err.Error(), "generic constraint violated") {
		t.Fatalf("wrong error: %v", err)
	}

	// ...and the fix is adding the exportable(T) guard to the body.
	c2 := NewCompiler()
	if err := c2.AddPolicy(saysPolicy); err != nil {
		t.Fatal(err)
	}
	if err := c2.AddPolicy(exportableGuard); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Compile(reachableQuery); err != nil {
		t.Fatalf("guarded policy should compile: %v", err)
	}
}

func TestPerPredicateDelegation(t *testing.T) {
	// Paper §6.1 per-predicate trust.
	policy := "`" + `{
		T(V*) <- says[T](P1, P2, V*), trustworthyPerPred[T](P1).
	} <-- predicate(T), exportable(T).`
	query := `
		creditscore(P, S) -> string(P), int(S).
		exportable('creditscore).
		trustworthyPerPred['creditscore](#"CA").
	`
	res := compileWith(t, query, saysPolicy, policy)
	w := engine.NewWorkspace(nil)
	if err := w.Install(res.Program); err != nil {
		t.Fatalf("install: %v\n%s", err, res.GeneratedSrc)
	}
	if _, err := w.AssertProgramFacts(`principal(#"CA"). principal(#other).`); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AssertProgramFacts(`says['creditscore](#"CA", #"CA", "bob", 700).`); err != nil {
		t.Fatal(err)
	}
	if w.Count("creditscore") != 1 {
		t.Fatalf("trusted CA fact should import: %v", w.Tuples("creditscore"))
	}
	// a known-but-undelegated principal is silently not imported
	if _, err := w.AssertProgramFacts(`says['creditscore](#other, #"CA", "bob", 1).`); err != nil {
		t.Fatal(err)
	}
	if w.Count("creditscore") != 1 {
		t.Error("undelegated principal's fact must not import")
	}
}

func TestVarargsZeroArity(t *testing.T) {
	policy := `
		says[T]=ST, predicate(ST),
		` + "`" + `{ ST(P1, P2, V*) -> principal(P1), principal(P2), types[T](V*). }
		<-- predicate(T), exportable(T).
	`
	query := `
		ping() -> .
		exportable('ping).
	`
	// ping is nullary... our dialect requires arity >= 1 relations for
	// declarations of that shape, so use a unary untyped predicate instead.
	query = `
		ping(X) <- seed(X).
		exportable('ping).
	`
	res := compileWith(t, query, policy)
	// ping has arity 1 with no declared types: constraint keeps principal
	// atoms, drops types
	if !strings.Contains(res.GeneratedSrc, "says$ping") {
		t.Fatalf("missing says$ping:\n%s", res.GeneratedSrc)
	}
	w := engine.NewWorkspace(nil)
	if err := w.Install(res.Program); err != nil {
		t.Fatalf("install: %v\n%s", err, res.GeneratedSrc)
	}
}

func TestNoFixpointCascadeDetected(t *testing.T) {
	// Applying says to every predicate including generated ones cascades
	// says$says$... forever; the compiler must abort, not hang.
	cascade := `
		says[T]=ST, predicate(ST),
		` + "`" + `{ ST(P1, P2, V*) -> principal(P1), principal(P2). }
		<-- predicate(T).
	`
	c := NewCompiler()
	if err := c.AddPolicy(cascade); err != nil {
		t.Fatal(err)
	}
	_, err := c.Compile(`p(X) <- q(X).`)
	if want := fmt.Sprintf("no fixpoint within %d rounds", maxRounds); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("cascade should hit the round bound (%q), got %v", want, err)
	}
}

func TestUnknownParamRejected(t *testing.T) {
	c := NewCompiler()
	if err := c.AddPolicy(saysPolicy); err != nil {
		t.Fatal(err)
	}
	_, err := c.Compile(`
		reachable(X,Y) <- link(X,Z), says['reachable](Z, Z, Z, Y).
		// note: no exportable('reachable) fact
	`)
	if err == nil || !strings.Contains(err.Error(), "says['reachable]") {
		t.Fatalf("says over non-exportable predicate should be a compile error, got %v", err)
	}
}

func TestPassthroughPreserved(t *testing.T) {
	policy := `
		watchlist(P) -> principal(P).
		` + "`" + `{ T(V*) <- says[T](P1, P2, V*). } <-- predicate(T), exportable(T).
	`
	res := compileWith(t, reachableQuery, saysPolicy, policy)
	found := false
	for _, con := range res.Program.Constraints {
		if strings.Contains(con.String(), "watchlist") {
			found = true
		}
	}
	if !found {
		t.Error("concrete passthrough code lost")
	}
}

func TestMetaFactsExposed(t *testing.T) {
	res := compileWith(t, reachableQuery, saysPolicy)
	preds := map[string]bool{}
	for _, tup := range res.MetaFacts["predicate"] {
		preds[tup[0]] = true
	}
	if !preds["link"] || !preds["reachable"] {
		t.Errorf("predicate relation incomplete: %v", res.MetaFacts["predicate"])
	}
	if !preds["says$reachable"] {
		t.Errorf("generated predicate not registered: %v", res.MetaFacts["predicate"])
	}
	if len(res.MetaFacts["exportable"]) != 1 {
		t.Errorf("exportable seed missing: %v", res.MetaFacts["exportable"])
	}
}

func TestRenderTokensRoundTrip(t *testing.T) {
	src := `says['reachable](#a, #b, @"h:1", 'q, "s", 42) <- p(X), X != 3.`
	toks, err := datalog.Tokens(src)
	if err != nil {
		t.Fatal(err)
	}
	rendered := renderTokens(toks[:len(toks)-1])
	toks2, err := datalog.Tokens(rendered)
	if err != nil {
		t.Fatalf("rendered text does not lex: %v\n%s", err, rendered)
	}
	if len(toks2) != len(toks) {
		t.Fatalf("token count changed: %d vs %d\n%s", len(toks2), len(toks), rendered)
	}
	for i := range toks2 {
		if toks2[i].Kind != toks[i].Kind || toks2[i].Text != toks[i].Text || toks2[i].Int != toks[i].Int {
			t.Errorf("token %d changed: %+v vs %+v", i, toks[i], toks2[i])
		}
	}
}

func TestInstantiateMidListVarargs(t *testing.T) {
	// V* in the middle of an argument list must keep commas balanced at
	// arity 0 and 2.
	out, err := instantiate(`sig(K, V*, S) <- src(K, V*, S).`, map[string]string{}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "K , V0 , V1 , S") {
		t.Errorf("arity-2 expansion wrong: %s", out)
	}
	out0, err := instantiate(`sig(K, V*, S) <- src(K, V*, S).`, map[string]string{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datalog.Parse(out0); err != nil {
		t.Errorf("arity-0 expansion does not parse: %v\n%s", err, out0)
	}
}
