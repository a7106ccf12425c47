package engine

import (
	"strings"
	"testing"

	"secureblox/internal/datalog"
)

func tryInstall(t *testing.T, src string) error {
	t.Helper()
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return w.Install(prog)
}

func TestTypeCheckRejectsKindMismatch(t *testing.T) {
	// The paper's §2 example: a rule deriving p from s is rejected when s's
	// values are not guaranteed to be in p's declared type.
	err := tryInstall(t, `
		p(X) -> int(X).
		s(X) -> string(X).
		p(X) <- s(X).
	`)
	if err == nil || !strings.Contains(err.Error(), "want int") {
		t.Fatalf("string-into-int rule should be rejected, got %v", err)
	}
}

func TestTypeCheckAcceptsDeclaredFlow(t *testing.T) {
	// The paper's fix: declare s(x) -> int(x) and the rule becomes safe.
	if err := tryInstall(t, `
		p(X) -> int(X).
		s(X) -> int(X).
		p(X) <- s(X).
	`); err != nil {
		t.Fatalf("well-typed rule rejected: %v", err)
	}
}

func TestTypeCheckConstantHeads(t *testing.T) {
	err := tryInstall(t, `
		p(X) -> int(X).
		p("oops") <- q(Y).
	`)
	if err == nil || !strings.Contains(err.Error(), "not of type int") {
		t.Fatalf("string constant into int head should be rejected, got %v", err)
	}
	if err := tryInstall(t, `
		p(X) -> int(X).
		p(7) <- q(Y).
	`); err != nil {
		t.Fatalf("int constant should pass: %v", err)
	}
}

func TestTypeCheckUndeclaredPositionsUnconstrained(t *testing.T) {
	// Positions without declared types fall back to runtime checking.
	if err := tryInstall(t, `
		p(X) -> int(X).
		p(X) <- anything(X).
	`); err != nil {
		t.Fatalf("undeclared body type should not be rejected statically: %v", err)
	}
}

func TestTypeCheckMembershipTypesAreRuntime(t *testing.T) {
	// principal is a membership type: statically unconstrained, enforced
	// by the runtime constraint instead.
	if err := tryInstall(t, `
		owner(P) -> principal(P).
		candidate(P) -> principal(P).
		owner(P) <- candidate(P).
	`); err != nil {
		t.Fatalf("principal-typed flow should pass static checking: %v", err)
	}
}

func TestTypeCheckEntityFlow(t *testing.T) {
	err := tryInstall(t, `
		pathvar(P) -> .
		othervar(Q) -> .
		holds(P) -> pathvar(P).
		holds(Q) <- source(Q), othervar(Q).
	`)
	if err == nil || !strings.Contains(err.Error(), "want pathvar") {
		t.Fatalf("wrong entity type in head should be rejected, got %v", err)
	}
}

func TestTypeCheckArithmeticHead(t *testing.T) {
	if err := tryInstall(t, `
		cost(C) -> int(C).
		cost(C + 1) <- base(C).
	`); err != nil {
		t.Fatalf("arithmetic into int head should pass: %v", err)
	}
	err := tryInstall(t, `
		loc(N) -> node(N).
		loc(C + 1) <- base(C).
	`)
	if err == nil || !strings.Contains(err.Error(), "arithmetic") {
		t.Fatalf("arithmetic into node head should be rejected, got %v", err)
	}
}

func TestBytesLiteralRoundTrip(t *testing.T) {
	w := NewWorkspace(nil)
	prog, err := datalog.Parse(`blob(0xDEADBEEF).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Install(prog); err != nil {
		t.Fatal(err)
	}
	tp := w.Tuples("blob")[0]
	if tp[0].Kind != datalog.KindBytes || len(tp[0].Bytes()) != 4 || tp[0].Bytes()[0] != 0xDE {
		t.Fatalf("bytes literal parsed wrong: %s", tp[0])
	}
	// reified form re-parses
	reified := tp[0].String()
	prog2, err := datalog.Parse(`b2(` + reified + `).`)
	if err != nil {
		t.Fatalf("reified bytes %q does not reparse: %v", reified, err)
	}
	if got := prog2.Facts[0].Args[0].(datalog.Const).Val; !got.Equal(tp[0]) {
		t.Errorf("bytes round trip changed value: %s vs %s", got, tp[0])
	}
}
