package engine_test

import (
	"testing"

	"secureblox/internal/analysis"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
)

// The engine judges no stratification itself: negation and aggregation read
// the current state. The analyzer is the one verdict, which a vetted
// program passes before it is compiled.

// installVetted checks src with the analyzer, then installs it into a fresh
// workspace, the way a vetted node's program is checked and then compiled.
func installVetted(t *testing.T, src string) error {
	t.Helper()
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&analysis.Analyzer{}).Check(prog); err != nil {
		return err
	}
	return engine.NewWorkspace(nil).Install(prog)
}

// TestUnstratifiedDetection: negation through another predicate of the
// rule's own cycle is rejected at install; negation guarding the rule's own
// head (the first-writer-wins import) is only a warning and installs.
func TestUnstratifiedDetection(t *testing.T) {
	if err := installVetted(t, `p(X) <- q(X), !r(X). r(X) <- p(X).`); err == nil {
		t.Error("a negation cycle through r installed")
	}
	if err := installVetted(t, `p(X) <- q(X), !p(X).`); err != nil {
		t.Errorf("a self-guarded head was rejected: %v", err)
	}
}

// TestStrictStratificationRejectsMutualNegation: two rules mutually
// recursive through negation have no stratified model; a vetted workspace
// refuses to install them.
func TestStrictStratificationRejectsMutualNegation(t *testing.T) {
	if err := installVetted(t, `
		p(X) <- q(X), !r(X).
		r(X) <- s(X), !p(X).
	`); err == nil {
		t.Fatal("mutually recursive negation was installed")
	}
}
