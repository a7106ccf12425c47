package analysis

import (
	"strings"
	"testing"

	"secureblox/internal/datalog"
)

func analyzeSrc(t *testing.T, src string, udfs ...string) *Report {
	t.Helper()
	a := &Analyzer{UDFs: StubUDFs(udfs...)}
	rep, err := a.AnalyzeSource(src)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return rep
}

// findingWith returns the first finding with the given code, failing the
// test when absent.
func findingWith(t *testing.T, rep *Report, code string) Finding {
	t.Helper()
	for _, f := range rep.Findings {
		if f.Code == code {
			return f
		}
	}
	for _, f := range rep.Findings {
		t.Logf("finding: %s", f)
	}
	t.Fatalf("no finding with code %s", code)
	return Finding{}
}

// The seeded-bad corpus: each program must be flagged with the expected
// code, severity class, and a real source position.
func TestBadCorpus(t *testing.T) {
	cases := []struct {
		name string
		src  string
		udfs []string
		code string
		sev  Severity
	}{
		{
			name: "unsafe head var",
			src:  `p(X, Y) <- q(X).`,
			code: CodeUnsafeHeadVar,
			sev:  Error,
		},
		{
			name: "unstratified negation cycle",
			src: `p(X) <- q(X), !r(X).
r(X) <- p(X).`,
			code: CodeUnstratifiedNeg,
			sev:  Error,
		},
		{
			name: "mutual negation",
			src: `p(X) <- q(X), !r(X).
r(X) <- s(X), !p(X).`,
			code: CodeUnstratifiedNeg,
			sev:  Error,
		},
		{
			name: "self-guarded head",
			src:  `p(X) <- q(X), !p(X).`,
			code: CodeUnstratifiedNeg,
			sev:  Warning,
		},
		{
			name: "unbound negation",
			src:  `p(X) <- q(X), !r(Y).`,
			code: CodeUnboundNegation,
			sev:  Error,
		},
		{
			name: "dead rule",
			src: `p(X) <- q(X).
q(X) <- p(X).`,
			code: CodeDeadRule,
			sev:  Warning,
		},
		{
			name: "non-copartitionable join",
			src: `out1(X) <- r(X, Y), s(Y, Z).
out2(X) <- r(X, Y), t(X, W).`,
			code: CodeNonCopartition,
			sev:  Warning,
		},
		{
			name: "aggregate in cycle",
			src: `total[X]=S <- agg<< S = sum(C) >> t(X, C).
t(X, S) <- total[X]=S.`,
			code: CodeAggregateCycle,
			sev:  Error,
		},
		{
			name: "range restriction",
			src:  `p(X) <- q(X), Y < X.`,
			code: CodeRangeRestriction,
			sev:  Error,
		},
		{
			name: "unused relation",
			src: `ghost(X) -> int(X).
p(X) <- q(X).`,
			code: CodeUnusedRelation,
			sev:  Warning,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := analyzeSrc(t, tc.src, tc.udfs...)
			f := findingWith(t, rep, tc.code)
			if f.Severity != tc.sev {
				t.Errorf("severity = %s, want %s", f.Severity, tc.sev)
			}
			if !f.Pos.Known() {
				t.Errorf("finding %s has no source position", f)
			}
			if (tc.sev == Error) != rep.HasErrors() {
				// Programs seeded with a single defect class must classify
				// exactly: warnings alone must not read as errors.
				for _, g := range rep.Findings {
					t.Logf("finding: %s", g)
				}
				t.Errorf("HasErrors() = %v for a %s-class program", rep.HasErrors(), tc.sev)
			}
		})
	}
}

func TestUnstratifiedCyclePrinted(t *testing.T) {
	rep := analyzeSrc(t, `p(X) <- q(X), !r(X).
r(X) <- s(X), p(X).`)
	f := findingWith(t, rep, CodeUnstratifiedNeg)
	if !strings.Contains(f.Msg, "p -> r -> p") {
		t.Errorf("cycle not printed: %s", f.Msg)
	}
}

// First-writer-wins guards (negation on the rule's own head) are the
// paper's import idiom; they must downgrade to warnings.
func TestSelfGuardIsWarning(t *testing.T) {
	rep := analyzeSrc(t, `path(P, S, D) <- imported(P, S, D), !path(P, S, D).`)
	f := findingWith(t, rep, CodeUnstratifiedNeg)
	if f.Severity != Warning {
		t.Errorf("self-guard severity = %s, want warning", f.Severity)
	}
	if rep.HasErrors() {
		t.Error("self-guarded import must not be an error")
	}
}

// Cycles broken by a network predicate (generics-minted "$" names) are
// semantically stratified and must downgrade to warnings.
func TestNetworkCycleIsWarning(t *testing.T) {
	rep := analyzeSrc(t, `says$p(U, X) <- p(X), !q(X), peer(U).
p(X) <- says$p(U, X).
q(X) <- p(X), stop(X).`)
	f := findingWith(t, rep, CodeUnstratifiedNeg)
	if f.Severity != Warning {
		t.Errorf("network-cycle severity = %s, want warning", f.Severity)
	}
}

func TestCleanProgramHasNoFindings(t *testing.T) {
	rep := analyzeSrc(t, `
		link(A, B) -> int(A), int(B).
		reach(A, B) <- link(A, B).
		reach(A, C) <- reach(A, B), link(B, C).
	`)
	for _, f := range rep.Findings {
		t.Errorf("unexpected finding: %s", f)
	}
	if len(rep.Joins) == 0 {
		t.Error("expected join edges for reach/link")
	}
	if rep.Deps == nil || len(rep.Deps.Edges) == 0 {
		t.Error("expected dependency edges")
	}
}

// A relation named only as a generic parameter is used: anonjoin declares
// req_publicdata and reads it through anon_says['req_publicdata].
func TestGenericParameterIsAUse(t *testing.T) {
	rep := analyzeSrc(t, `
		req(X) -> int(X).
		reply(X) -> int(X).
		ghost(X) -> int(X).
		out['req](X) <- in(X).
		back(X) <- total['reply][X]=3.
	`)
	var unused []string
	for _, f := range rep.Findings {
		if f.Code == CodeUnusedRelation {
			unused = append(unused, f.Msg)
		}
	}
	if len(unused) != 1 || !strings.Contains(unused[0], "ghost") {
		t.Errorf("unused-relation findings = %q, want ghost's alone", unused)
	}
}

// Entity-typed head existentials and aggregation results are not unsafe.
func TestExistentialAndAggHeadsAreSafe(t *testing.T) {
	rep := analyzeSrc(t, `
		pathvar(P) -> .
		pathvar(P), path(P, S, D) <- link(S, D).
		best[S]=C <- agg<< C = min(Cx) >> cost(S, Cx).
	`)
	for _, f := range rep.Findings {
		if f.Code == CodeUnsafeHeadVar {
			t.Errorf("false positive: %s", f)
		}
	}
}

func TestFindingsDeterministic(t *testing.T) {
	src := `p(X, Y) <- q(X), !r(Z), W < X.
dead(X) <- never(X), p(X, X).
never(X) <- dead(X).`
	var prev []string
	for i := 0; i < 5; i++ {
		rep := analyzeSrc(t, src)
		var got []string
		for _, f := range rep.Findings {
			got = append(got, f.String())
		}
		if i > 0 && strings.Join(got, "\n") != strings.Join(prev, "\n") {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, strings.Join(got, "\n"), strings.Join(prev, "\n"))
		}
		prev = got
	}
}

func TestCheckRejectsErrors(t *testing.T) {
	a := &Analyzer{}
	bad, err := datalog.Parse(`p(X, Y) <- q(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(bad); err == nil {
		t.Error("unsafe program passed Check")
	} else if !strings.Contains(err.Error(), CodeUnsafeHeadVar) {
		t.Errorf("error does not name the finding: %v", err)
	}
	good, err := datalog.Parse(`reach(A, B) <- link(A, B).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(good); err != nil {
		t.Errorf("clean program rejected: %v", err)
	}
}
