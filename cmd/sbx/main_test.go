package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"secureblox/internal/apps"
)

// sbx runs the command in-process and returns its exit code and streams.
func sbx(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// schemes are the eight names core.ParsePolicyName accepts.
var schemes = []string{"NoAuth", "HMAC", "RSA", "RSA-batch", "NoAuth-AES", "HMAC-AES", "RSA-AES", "RSA-batch-AES"}

// TestRunSchemeByWorkloadMatrix: every scheme × every shipped workload
// through `sbx run` at smoke size. A cell either exits 0 having printed its
// measurements and a passing, non-empty oracle line, or exits 1 naming what
// went wrong — never 0 over a run that computed nothing.
func TestRunSchemeByWorkloadMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("24 cluster runs, RSA among them")
	}
	// What a passing run's oracle line says at the size the test asks for.
	rows := []struct{ workload, n, oracle string }{
		{"pathvector", "6", "every bestcost of 6 nodes against BFS"},
		{"hashjoin", "3", "602 of 602 join rows"},
		{"anonjoin", "4", "6 of 6 matches"},
	}
	if len(rows) != len(apps.Workloads) {
		t.Fatalf("matrix covers %d workloads, the table has %d", len(rows), len(apps.Workloads))
	}
	type cell struct{ workload, n, oracle, scheme, transport string }
	var cells []cell
	for _, r := range rows {
		for _, s := range schemes {
			cells = append(cells, cell{r.workload, r.n, r.oracle, s, "mem"})
		}
	}
	cells = append(cells,
		cell{"pathvector", "3", "every bestcost of 3 nodes against BFS", "RSA-batch", "udp"},
		// No flag at all (n empty): NoAuth, six nodes, memnet.
		cell{"anonjoin", "", "6 of 6 matches", "NoAuth", "mem"})
	for _, c := range cells {
		name := c.workload + "/" + c.scheme
		args, label := []string{"run", c.workload, "-scheme", c.scheme, "-n", c.n, "-transport", c.transport}, name+"/"+c.transport
		if c.n == "" {
			args, label = args[:2], c.workload+"/defaults"
		}
		t.Run(label, func(t *testing.T) {
			code, out, errOut := sbx(args...)
			for _, m := range []string{"fixpoint latency", "per-node traffic", "mean transaction", "transactions", "rsa sign ops", "violations", "oracle"} {
				if !strings.Contains(out, "\n"+m+" ") {
					t.Errorf("measurement %q not printed (they come before the verdict):\n%s", m, out)
				}
			}
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
			}
			if !strings.Contains(out, "violations        0\n") || !strings.Contains(out, c.oracle) || !strings.HasSuffix(out, "\nok\n") {
				t.Fatalf("exit 0 without zero violations, the oracle line %q and the ok line:\n%s", c.oracle, out)
			}
			if strings.HasPrefix(c.scheme, "RSA") == strings.Contains(out, "rsa sign ops      0\n") && c.workload != "anonjoin" {
				t.Errorf("sign ops do not fit scheme %s:\n%s", c.scheme, out)
			}
		})
	}
}

// Misuse exits 2 before anything runs, with the usage line naming every
// row of the table.
func TestRunMisuse(t *testing.T) {
	usage := "usage: sbx run <" + strings.Join(apps.Names(), "|") + "> [-scheme S] [-n N] [-seed K] [-transport mem|udp]"
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no workload", []string{"run"}, "no workload named"},
		{"unknown workload", []string{"run", "pathvektor"}, `unknown workload "pathvektor"`},
		{"unknown scheme", []string{"run", "hashjoin", "-scheme", "RSAA"}, `unknown policy "RSAA"`},
		{"batch without rsa", []string{"run", "hashjoin", "-scheme", "HMAC-batch"}, "-batch requires the RSA scheme"},
		{"unknown transport", []string{"run", "pathvector", "-transport", "tcp"}, `unknown transport "tcp"`},
		{"no nodes", []string{"run", "pathvector", "-n", "0"}, "-n 0"},
		{"stray argument", []string{"run", "pathvector", "hashjoin"}, "unexpected arguments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := sbx(tc.args...)
			if code != 2 || !strings.Contains(errOut, tc.want) || !strings.Contains(errOut, usage) || out != "" {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 naming %q above the usage line %q", code, out, errOut, tc.want, usage)
			}
		})
	}
	// A cluster too small for the workload is the run's error, not misuse.
	if code, _, errOut := sbx("run", "anonjoin", "-n", "2"); code != 1 || !strings.Contains(errOut, "at least one relay") {
		t.Errorf("anonjoin -n 2: exit %d, stderr %q", code, errOut)
	}
}

// `sbx vet -builtin` prints exactly one verdict per row of the table.
func TestVetBuiltinOneVerdictPerRow(t *testing.T) {
	code, out, errOut := sbx("vet", "-builtin")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var verdicts []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "vet: ") {
			verdicts = append(verdicts, l)
		}
	}
	var want []string
	for _, w := range apps.Workloads {
		want = append(want, "vet: "+w.Name+": ok")
	}
	if strings.Join(verdicts, "\n") != strings.Join(want, "\n") {
		t.Fatalf("verdicts:\n%s\nwant:\n%s", strings.Join(verdicts, "\n"), strings.Join(want, "\n"))
	}
}

// `sbx vet -builtin` prints exactly the findings in testdata/vet_builtin.golden:
// severity, code, relation, column set, count and source position. A change to
// the analyzer or to a shipped rule set that moves one shows up as a reviewed
// diff of that file; regenerate it with
//
//	go run ./cmd/sbx vet -builtin > cmd/sbx/testdata/vet_builtin.golden
func TestVetBuiltinGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/vet_builtin.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := sbx("vet", "-builtin")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if out != string(want) {
		t.Errorf("sbx vet -builtin:\n%s\nwant (testdata/vet_builtin.golden):\n%s", out, want)
	}
}
