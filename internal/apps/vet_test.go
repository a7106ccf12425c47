package apps

import (
	"testing"

	"secureblox/internal/analysis"
	"secureblox/internal/cluster"
	"secureblox/internal/core"
	"secureblox/internal/seccrypto"
	"secureblox/internal/udf"
)

// vetAnalyzer builds the analyzer `sbx vet` uses: the full UDF library over
// an empty keystore (planning never evaluates a UDF).
func vetAnalyzer(t *testing.T) *analysis.Analyzer {
	t.Helper()
	reg, err := udf.NewRegistry(seccrypto.NewKeyStore("vet"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.Analyzer{UDFs: reg}
}

func assertNoErrors(t *testing.T, a *analysis.Analyzer, name string, rep *analysis.Report) {
	t.Helper()
	if rep.HasErrors() {
		for _, f := range rep.Errors() {
			t.Errorf("%s: %s", name, f)
		}
	}
}

// schemes are the eight names cluster.ParsePolicyName accepts.
var schemes = []string{"NoAuth", "HMAC", "RSA", "RSA-batch", "NoAuth-AES", "HMAC-AES", "RSA-AES", "RSA-batch-AES"}

// Every shipped rule set must pass the analyzer as raw source: the lints
// may warn (network-stratified cycles, first-writer-wins guards) but must
// report no error-class finding.
func TestShippedQueriesPassVet(t *testing.T) {
	a := vetAnalyzer(t)
	for _, w := range Workloads {
		rep, err := a.AnalyzeSource(w.Query)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		assertNoErrors(t, a, w.Name, rep)
	}
}

// The compiled programs — query plus generated policy rules — must pass
// too, every row of the table under every scheme a deployment can select.
func TestCompiledProgramsPassVet(t *testing.T) {
	a := vetAnalyzer(t)
	for _, w := range Workloads {
		for _, scheme := range schemes {
			name := w.Name + "/" + scheme
			spec, err := cluster.ParsePolicyName(scheme)
			if err != nil {
				t.Fatal(err)
			}
			pol, err := core.PolicyFromSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.Compile(pol)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			rep, err := a.Analyze(res.Program)
			if err != nil {
				t.Fatalf("%s: analyze: %v", name, err)
			}
			assertNoErrors(t, a, name, rep)
		}
	}
}
