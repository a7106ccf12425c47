package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"secureblox/internal/cluster"
	"secureblox/internal/seccrypto"
)

// writeTestConfig builds a runnable config in dir: concrete seed port on
// loopback, ephemeral ports for the joiners, inline keys under RSA.
func writeTestConfig(t *testing.T, dir, policy, workload string, seedPort int) string {
	t.Helper()
	cfg := cluster.Config{
		Cluster:  "sbxtest-" + policy + "-" + workload,
		Policy:   policy,
		Workload: cluster.WorkloadConfig{Name: workload, Seed: 11, Degree: 3, SizeA: 60, SizeB: 50, JoinValues: 12},
		Nodes: []cluster.NodeConfig{
			{Principal: "p0", Addr: fmt.Sprintf("127.0.0.1:%d", seedPort)},
			{Principal: "p1", Addr: "127.0.0.1:0"},
			{Principal: "p2", Addr: "127.0.0.1:0"},
		},
	}
	spec, err := cluster.ParsePolicyName(policy)
	if err != nil {
		t.Fatal(err)
	}
	if spec.UsesRSA() {
		for i := range cfg.Nodes {
			k, err := seccrypto.GenerateRSAKey(seccrypto.NewDeterministicRand(int64(100 + i)))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Nodes[i].KeyPEM = string(seccrypto.EncodePrivateKeyPEM(k))
		}
	}
	if spec.UsesSharedSecrets() {
		cfg.ClusterSecret = strings.Repeat("5a", seccrypto.SecretLen)
	}
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cluster.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs run() with stdout/stderr redirected to temp files and
// returns the exit code and both streams.
func capture(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.CreateTemp(t.TempDir(), "err")
	if err != nil {
		t.Fatal(err)
	}
	code = run(args, outF, errF)
	outB, _ := os.ReadFile(outF.Name())
	errB, _ := os.ReadFile(errF.Name())
	outF.Close()
	errF.Close()
	return code, string(outB), string(errB)
}

// sortedLines splits, sorts and rejoins result output so per-process
// partitions can be merged the way the CI smoke merges them.
func sortedLines(chunks ...string) string {
	var all []string
	for _, c := range chunks {
		for _, l := range strings.Split(strings.TrimSpace(c), "\n") {
			if l != "" {
				all = append(all, l)
			}
		}
	}
	sort.Strings(all)
	return strings.Join(all, "\n")
}

// TestMultiProcessMatchesAllInOne drives three full node runtimes — each
// with its own strict UDP network, keystore and detector, exactly the
// multi-process code path — concurrently against the in-process memnet
// reference, and requires byte-identical result sets. CI repeats this with
// three real OS processes; this test keeps the property under `go test`.
func TestMultiProcessMatchesAllInOne(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up real UDP sockets")
	}
	for _, tc := range []struct{ policy, workload, port string }{
		{"RSA", "pathvector", "7411"},
		{"HMAC-AES", "pathvector", "7412"},
		{"NoAuth", "hashjoin", "7413"},
	} {
		t.Run(tc.policy+"/"+tc.workload, func(t *testing.T) {
			dir := t.TempDir()
			var port int
			fmt.Sscanf(tc.port, "%d", &port)
			cfgPath := writeTestConfig(t, dir, tc.policy, tc.workload, port)

			refCode, refOut, refErr := capture(t, []string{"-config", cfgPath, "-allinone", "-timeout", "60s"})
			if refCode != 0 {
				t.Fatalf("allinone exit %d: %s", refCode, refErr)
			}

			outs := make([]string, 3)
			var wg sync.WaitGroup
			for i, p := range []string{"p0", "p1", "p2"} {
				i, p := i, p
				wg.Add(1)
				go func() {
					defer wg.Done()
					code, out, errOut := capture(t, []string{"-config", cfgPath, "-node", p, "-timeout", "60s"})
					if code != 0 {
						t.Errorf("%s exit %d: %s", p, code, errOut)
						return
					}
					outs[i] = out
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			got := sortedLines(outs...)
			want := sortedLines(refOut)
			if got != want {
				t.Fatalf("multi-node results differ from allinone reference:\n--- multi:\n%s\n--- allinone:\n%s", got, want)
			}
			if want == "" {
				t.Fatal("empty result set proves nothing")
			}
		})
	}
}

// TestDeadPeerYieldsTypedError: one node passes the ready barrier and
// vanishes; the survivors must exit with code 3 (the typed unresponsive
// detector error) naming the dead principal — not hang.
func TestDeadPeerYieldsTypedError(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up real UDP sockets")
	}
	dir := t.TempDir()
	cfgPath := writeTestConfig(t, dir, "NoAuth", "pathvector", 7421)
	codes := make([]int, 3)
	errs := make([]string, 3)
	var wg sync.WaitGroup
	for i, p := range []string{"p0", "p1", "p2"} {
		i, p := i, p
		args := []string{"-config", cfgPath, "-node", p, "-timeout", "30s", "-unresponsive", "2s"}
		if p == "p2" {
			args = append(args, "-dieafterjoin")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], _, errs[i] = capture(t, args)
		}()
	}
	wg.Wait()
	if codes[2] != 0 {
		t.Fatalf("fault-injected node exited %d: %s", codes[2], errs[2])
	}
	for i := 0; i < 2; i++ {
		if codes[i] != 3 {
			t.Fatalf("survivor p%d exited %d (want 3): %s", i, codes[i], errs[i])
		}
		if !strings.Contains(errs[i], "p2") || !strings.Contains(errs[i], "no termination report") {
			t.Fatalf("survivor p%d error does not name the dead principal: %s", i, errs[i])
		}
	}
}

// TestCLIErrors covers the config-driven failure paths end to end.
func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	cfgPath := writeTestConfig(t, dir, "NoAuth", "pathvector", 7431)
	// Which workloads exist is apps.Workloads' to say, not the config
	// parser's: a typo, and a row without a multi-process driver, are turned
	// away here, in every mode, before a socket is bound.
	typoPath := writeTestConfig(t, t.TempDir(), "NoAuth", "pathvektor", 7431)
	anonPath := writeTestConfig(t, t.TempDir(), "NoAuth", "anonjoin", 7431)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no config", []string{"-node", "p0"}, "-config is required"},
		{"absent config", []string{"-config", filepath.Join(dir, "nope.json"), "-node", "p0"}, "no such file"},
		{"no mode", []string{"-config", cfgPath}, "one of -node, -allinone, -genkeys or -vet"},
		{"unknown principal", []string{"-config", cfgPath, "-node", "px"}, `no node named "px"`},
		{"genkeys without rsa", []string{"-config", cfgPath, "-genkeys"}, "uses no RSA keys"},
		{"workload typo", []string{"-config", typoPath, "-node", "p0"}, `unknown workload "pathvektor" (want pathvector, hashjoin, anonjoin)`},
		{"workload typo allinone", []string{"-config", typoPath, "-allinone"}, `unknown workload "pathvektor"`},
		{"workload typo vet", []string{"-config", typoPath, "-vet"}, `unknown workload "pathvektor"`},
		{"workload without driver", []string{"-config", anonPath, "-node", "p0"}, "anonjoin has no multi-process driver"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := capture(t, tc.args)
			if code != 1 || !strings.Contains(errOut, tc.want) {
				t.Fatalf("exit %d, stderr %q; want exit 1 containing %q", code, errOut, tc.want)
			}
		})
	}
}

// TestVetPreflight: -vet analyzes both shipped workloads under their
// configured policy without touching key files, and reports success.
func TestVetPreflight(t *testing.T) {
	dir := t.TempDir()
	for _, workload := range []string{"pathvector", "hashjoin"} {
		cfgPath := writeTestConfig(t, dir, "RSA", workload, 7451)
		code, out, errOut := capture(t, []string{"-config", cfgPath, "-vet"})
		if code != 0 {
			t.Fatalf("%s: vet exit %d: %s", workload, code, errOut)
		}
		if !strings.Contains(out, "vet: workload "+workload+" (RSA): ok") {
			t.Fatalf("%s: vet output missing verdict:\n%s", workload, out)
		}
	}
}

// TestGenKeysProvisionsConfig: -genkeys writes loadable key files exactly
// where the config points, one distinct key each, reported in config order.
func TestGenKeysProvisionsConfig(t *testing.T) {
	dir := t.TempDir()
	inline, err := seccrypto.GenerateRSAKey(seccrypto.NewDeterministicRand(200))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{
		Cluster:  "genkeys",
		Policy:   "RSA",
		Workload: cluster.WorkloadConfig{Name: "pathvector", Seed: 1},
	}
	var wantOut string
	for i := 0; i < 5; i++ {
		n := cluster.NodeConfig{Principal: fmt.Sprintf("p%d", i), Addr: "127.0.0.1:0"}
		if i == 0 {
			n.Addr = "127.0.0.1:7441" // the seed needs a concrete port
		}
		if i == 2 { // holds its key inline: -genkeys must skip it, not shift its neighbours
			n.KeyPEM = string(seccrypto.EncodePrivateKeyPEM(inline))
		} else {
			n.KeyFile = filepath.Join(dir, n.Principal+".pem")
			wantOut += fmt.Sprintf("wrote %s (%s)\n", n.KeyFile, n.Principal)
		}
		cfg.Nodes = append(cfg.Nodes, n)
	}
	data, _ := json.Marshal(cfg)
	cfgPath := filepath.Join(dir, "c.json")
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := capture(t, []string{"-config", cfgPath, "-genkeys"})
	if code != 0 {
		t.Fatalf("genkeys exit %d: %s", code, errOut)
	}
	if out != wantOut {
		t.Fatalf("genkeys output not one line per key file in config order:\n%s\nwant:\n%s", out, wantOut)
	}
	loaded, err := cluster.LoadConfig(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	// The keys were generated concurrently: each file holds a usable key of
	// its own, and the inline one is untouched.
	msg := []byte("provisioned")
	seen := map[string]string{}
	for _, n := range loaded.Nodes {
		k, err := loaded.LoadNodeKey(n.Principal)
		if err != nil {
			t.Fatalf("generated key for %s unusable: %v", n.Principal, err)
		}
		sig, err := seccrypto.RSASign(k, msg)
		if err != nil || !seccrypto.RSAVerify(&k.PublicKey, msg, sig) {
			t.Errorf("%s's key does not sign and verify: %v", n.Principal, err)
		}
		if q, dup := seen[k.N.String()]; dup {
			t.Errorf("%s and %s were given the same key", n.Principal, q)
		}
		seen[k.N.String()] = n.Principal
		if (n.Principal == "p2") != (k.N.Cmp(inline.N) == 0) {
			t.Errorf("%s: inline key misplaced", n.Principal)
		}
	}
}
