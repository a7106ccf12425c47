package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"secureblox/internal/cluster"
	"secureblox/internal/core"
	"secureblox/internal/engine"
	"secureblox/internal/obs"
	"secureblox/internal/seccrypto"
)

// testConfig is a runnable n-node config: the seed on a concrete loopback
// port, ephemeral ports for the joiners, RSA keys inline, and the input the
// bash smokes ran (path-vector seed 42, a 60×50 hash join).
func testConfig(t *testing.T, policy, workload string, n, seedPort int) *cluster.Config {
	t.Helper()
	cfg := &cluster.Config{
		Cluster:  fmt.Sprintf("sbxtest-%s-%s-%d", policy, workload, n),
		Policy:   policy,
		Workload: cluster.WorkloadConfig{Name: workload, Seed: 42, Degree: 3, SizeA: 60, SizeB: 50, JoinValues: 12},
	}
	pol, err := core.ParsePolicyName(policy)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		node := cluster.NodeConfig{Principal: fmt.Sprintf("p%d", i), Addr: "127.0.0.1:0"}
		if i == 0 {
			node.Addr = fmt.Sprintf("127.0.0.1:%d", seedPort)
		}
		if pol.Auth == core.AuthRSA {
			k, err := seccrypto.GenerateRSAKey(seccrypto.NewDeterministicRand(int64(100 + i)))
			if err != nil {
				t.Fatal(err)
			}
			node.KeyPEM = string(seccrypto.EncodePrivateKeyPEM(k))
		}
		cfg.Nodes = append(cfg.Nodes, node)
	}
	if pol.Auth == core.AuthHMAC || pol.Encrypt {
		cfg.ClusterSecret = strings.Repeat("5a", seccrypto.SecretLen)
	}
	return cfg
}

// writeFile writes data (a string, or anything else as JSON) to dir/name and
// returns the path.
func writeFile(t *testing.T, dir, name string, data any) string {
	t.Helper()
	b, ok := data.(string)
	if !ok {
		j, err := json.MarshalIndent(data, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		b = string(j)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeTestConfig writes testConfig's three-node config to dir.
func writeTestConfig(t *testing.T, dir, policy, workload string, seedPort int) string {
	return writeFile(t, dir, "cluster.json", testConfig(t, policy, workload, 3, seedPort))
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
// partitions can be merged into one result set.
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

// reference is the result set a deployment of cfg must print, computed by
// the row's in-process runner over core.NewCluster: the static-directory
// constructor, which runs none of the handshake, barrier and eviction code
// every sbxnode mode runs. Its principals are p0, p1, …; the lines name the
// config's principals in their place, in config order. The muted principals
// are the ones an evict-policy run loses right after the ready barrier: they
// stay in the directory but assert no input and report no line.
func reference(t *testing.T, cfg *cluster.Config, muted ...string) string {
	t.Helper()
	w, pol, err := configWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := *w
	row.Facts = func(wc cluster.WorkloadConfig, mem *cluster.Membership, idx int) []engine.Fact {
		if slices.Contains(muted, cfg.Nodes[idx].Principal) {
			return nil
		}
		return w.Facts(wc, mem, idx)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	o, err := row.Run(ctx, cfg.Workload, len(cfg.Nodes), pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := o.Cluster
	c.Stop()
	named := &cluster.Membership{Members: slices.Clone(c.Directory.Members)}
	var lines []string
	for i, n := range cfg.Nodes {
		named.Members[i].Principal = n.Principal
	}
	for i, n := range cfg.Nodes {
		if !slices.Contains(muted, n.Principal) {
			lines = append(lines, w.Lines(named, i, c.Nodes[i].WS)...)
		}
	}
	return sortedLines(lines...)
}

// deployment is one scenario TestDeployments runs: every principal of an
// n-node config as its own -node run — own strict UDP network, keystore and
// detector, exactly the multi-process code path — concurrently in this
// process, every one under the same chaos plan; or, for allInOne, one
// -allinone run of the config.
type deployment struct {
	name             string
	policy, workload string
	n, port          int
	allInOne         bool
	evict            bool   // on_failure "evict" instead of the default abort
	keyFiles         bool   // RSA keys in key_file entries provisioned by -genkeys
	plan             string // chaos plan JSON ("" runs without one)
	crashed          string // the principal the plan crashes at 0 ms
	// Registry families whose delta over the run must be positive, and
	// families that must render whatever their value.
	positive, present []string
}

var deployments = []deployment{{
	// The plan delays every datagram 150 ms and drops nothing, so the
	// result set is the reference's.
	name: "rsa-keyfiles-delay", policy: "RSA", workload: "pathvector", n: 3, port: 7411, keyFiles: true,
	plan:     `{"seed": 7, "links": [{"from": "*", "to": "*", "delay_ms": 150}]}`,
	positive: []string{"sbx_txns_total", "sbx_engine_index_probes_total", "sbx_engine_tuples_scanned_total", "sbx_rsa_sign_ops_total", "sbx_bytes_sent_total"},
	present: []string{"sbx_transport_retransmits_total", "sbx_transport_dup_drops_total", "sbx_transport_crc_rejects_total",
		"sbx_go_goroutines", "sbx_spans_dropped_total", "sbx_log_dropped_total"},
}, {
	name: "hmac-aes", policy: "HMAC-AES", workload: "pathvector", n: 3, port: 7412,
}, {
	name: "noauth-hashjoin", policy: "NoAuth", workload: "hashjoin", n: 3, port: 7413,
}, {
	// Abort: the survivors name the silent principal and exit 3.
	name: "abort", policy: "NoAuth", workload: "pathvector", n: 3, port: 7414,
	plan: `{"seed": 7, "crashes": [{"node": "p2", "at_ms": 0}]}`, crashed: "p2",
}, {
	// Evict: the survivors drop p4 (backing off its retransmits first) and
	// converge on the four-node result set.
	name: "evict", policy: "NoAuth", workload: "pathvector", n: 5, port: 7415, evict: true,
	plan: `{"seed": 7, "crashes": [{"node": "p4", "at_ms": 0}]}`, crashed: "p4",
	positive: []string{"sbx_cluster_evictions_total", "sbx_transport_backoffs_total"},
	present:  []string{"sbx_transport_forgotten_frames_total"},
}, {
	// The reliable layer grinds through loss, duplication, corruption,
	// reordering and a one-second partition to the clean result set. The
	// partition opens with the run: one that opens after the fixpoint cuts
	// the departure barrier instead (ROADMAP item 2).
	name: "lossy-partition", policy: "NoAuth", workload: "pathvector", n: 3, port: 7416,
	plan: `{"seed": 11,
		"links": [{"from": "*", "to": "*", "drop": 0.15, "dup": 0.1, "garble": 0.05, "reorder": 0.1, "delay_ms": 1, "jitter_ms": 2}],
		"partitions": [{"a": ["p0"], "b": ["p1", "p2"], "at_ms": 0, "heal_ms": 1000}]}`,
	positive: []string{"sbx_chaos_faults_total", "sbx_transport_retransmits_total"},
}, {
	// Every principal in one process, through the same handshake,
	// barriers and departure over memnet, held to the same reference.
	name: "allinone", policy: "RSA-batch", workload: "pathvector", n: 5, port: 7417, allInOne: true,
	positive: []string{"sbx_txns_total", "sbx_rsa_sign_ops_total"},
}}

// TestDeployments runs every deployment scenario against core.NewCluster's
// reference — muted when the plan crashes a member under evict — or, under
// abort, against the survivors' typed error. Counters are asserted as
// deltas of the process-wide registry over the run.
func TestDeployments(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up real UDP sockets")
	}
	for _, d := range deployments {
		t.Run(d.name, d.run)
	}
}

func (d deployment) run(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, d.policy, d.workload, d.n, d.port)
	if d.evict {
		cfg.OnFailure = "evict"
	}
	if d.keyFiles {
		for i := range cfg.Nodes {
			cfg.Nodes[i].KeyPEM, cfg.Nodes[i].KeyFile = "", filepath.Join(dir, cfg.Nodes[i].Principal+".pem")
		}
	}
	cfgPath := writeFile(t, dir, "cluster.json", cfg)
	if d.keyFiles {
		if code, _, errOut := capture(t, []string{"-config", cfgPath, "-genkeys"}); code != 0 {
			t.Fatalf("genkeys exit %d: %s", code, errOut)
		}
	}
	abort := d.crashed != "" && !d.evict
	var want string
	if !abort {
		if want = reference(t, cfg, d.crashed); want == "" {
			t.Fatal("empty reference result set proves nothing")
		}
	}

	args := []string{"-config", cfgPath, "-timeout", "60s"}
	if d.plan != "" {
		args = append(args, "-chaos", writeFile(t, dir, "plan.json", d.plan))
	}
	if d.crashed != "" {
		args = append(args, "-unresponsive", "3s")
	}
	runs := cfg.Principals()
	if d.allInOne {
		runs = []string{"allinone"}
	}
	obs.L().ResetEvents()
	before := obs.SumPromFamilies(obs.Default().Render())
	codes, outs, errs := make([]int, len(runs)), make([]string, len(runs)), make([]string, len(runs))
	var wg sync.WaitGroup
	for i, p := range runs {
		mode := []string{"-node", p}
		if d.allInOne {
			mode = []string{"-allinone"}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], outs[i], errs[i] = capture(t, append(mode, args...))
		}()
	}
	wg.Wait()
	after := obs.SumPromFamilies(obs.Default().Render())
	defer func() {
		if !t.Failed() {
			return
		}
		for _, e := range obs.L().Events() {
			t.Logf("log %s %s %s %s %v", e.Time.Format("15:04:05.000"), e.Level, e.Principal, e.Msg, e.Fields)
		}
		for i, e := range errs {
			t.Logf("%s exit %d, stderr:\n%s", runs[i], codes[i], e)
		}
	}()

	var survivors []string
	for i, p := range runs {
		switch {
		case p == d.crashed:
			if codes[i] != 7 || outs[i] != "" {
				t.Errorf("crashed %s: exit %d with %d bytes of result, want 7 and none", p, codes[i], len(outs[i]))
			}
		case abort:
			if codes[i] != 3 || !strings.Contains(errs[i], "no termination report from "+d.crashed) {
				t.Errorf("survivor %s: exit %d, want 3 naming %s", p, codes[i], d.crashed)
			}
		case codes[i] != 0:
			t.Errorf("%s exit %d", p, codes[i])
		default:
			survivors = append(survivors, outs[i])
		}
	}
	if t.Failed() || want == "" {
		return
	}
	if got := sortedLines(survivors...); got != want {
		t.Fatalf("result set differs from the reference:\n--- got:\n%s\n--- want:\n%s", got, want)
	}
	if d.evict && !slices.ContainsFunc(obs.L().Events(), func(e obs.Event) bool {
		return e.Msg == "evicting unresponsive" && fmt.Sprint(e.Fields["evicted"]) == "["+d.crashed+"]"
	}) {
		t.Errorf("no survivor logged evicting %s", d.crashed)
	}
	for _, f := range d.positive {
		if after[f] <= before[f] {
			t.Errorf("%s moved %v -> %v over the run, want an increase", f, before[f], after[f])
		}
	}
	for _, f := range d.present {
		if _, ok := after[f]; !ok {
			t.Errorf("/metrics lacks %s", f)
		}
	}
}

// TestAllInOneFromConfig: -allinone takes the principals, their order and
// their key material from the config — RSA keys inline, pair secrets
// derived from the cluster secret, or none, and the anonymous join's
// circuit keys from the workload seed — and its result lines name the
// config's principals, as the renamed reference does.
func TestAllInOneFromConfig(t *testing.T) {
	for _, tc := range []struct{ name, policy, workload, first string }{
		{"RSA", "RSA", "pathvector", "bestcost\talice\t"},
		{"HMAC-AES", "HMAC-AES", "pathvector", "bestcost\talice\t"},
		{"NoAuth", "NoAuth", "pathvector", "bestcost\talice\t"},
		{"anonjoin", "HMAC-AES", "anonjoin", "result\t"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, tc.policy, tc.workload, 3, 7421)
			for i, name := range []string{"carol", "alice", "bob"} {
				cfg.Nodes[i].Principal = name
			}
			// A path, not the triangle degree 3 gives: one bestcost row per
			// direction crosses the middle node, so the answer needs traffic
			// the keys authenticate.
			cfg.Workload.Degree = 1
			cfgPath := writeFile(t, t.TempDir(), "cluster.json", cfg)
			code, out, errOut := capture(t, []string{"-config", cfgPath, "-allinone", "-timeout", "60s"})
			if code != 0 {
				t.Fatalf("allinone exit %d: %s", code, errOut)
			}
			got, want := sortedLines(out), reference(t, cfg)
			if got != want || !strings.HasPrefix(got, tc.first) {
				t.Fatalf("result set differs from the reference:\n--- got:\n%s\n--- want:\n%s", got, want)
			}
		})
	}
}

// TestCLIErrors covers the config-driven failure paths end to end.
func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	cfgPath := writeTestConfig(t, dir, "NoAuth", "pathvector", 7431)
	// Which workloads exist, and on how few nodes each runs, is
	// apps.Workloads' to say, not the config parser's: a typo, and an
	// anonymous join with no relay, are turned away here, in every mode,
	// before a socket is bound.
	typoPath := writeTestConfig(t, t.TempDir(), "NoAuth", "pathvektor", 7431)
	anonPath := writeFile(t, t.TempDir(), "cluster.json", testConfig(t, "NoAuth", "anonjoin", 2, 7431))
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
		{"anonjoin without relay", []string{"-config", anonPath, "-node", "p0"}, "at least one relay"},
	}
	// What key material a scheme needs is core's to say
	// (core.DeploymentPolicy): a policy typo, and a key or a secret the
	// policy does not match, are turned away in every mode before a socket
	// is bound or a key file written. The key files named below must never
	// appear, and -debugaddr names a port this test holds, so a mode that
	// bound its debug server first would fail on that instead.
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	keyDir := t.TempDir()
	withKeyFiles := func(c *cluster.Config) *cluster.Config {
		for i := range c.Nodes {
			c.Nodes[i].KeyPEM = ""
			c.Nodes[i].KeyFile = filepath.Join(keyDir, c.Nodes[i].Principal+".pem")
		}
		return c
	}
	policyTypo := withKeyFiles(testConfig(t, "RSA", "pathvector", 3, 7431))
	policyTypo.Policy = "RSAA"
	batchWithoutRSA := testConfig(t, "HMAC", "pathvector", 3, 7431)
	batchWithoutRSA.Policy = "HMAC-batch"
	missingKey := withKeyFiles(testConfig(t, "RSA", "pathvector", 3, 7431))
	missingKey.Nodes[2].KeyFile = ""
	strayKey := testConfig(t, "NoAuth", "pathvector", 3, 7431)
	strayKey.Nodes[0].KeyFile = filepath.Join(keyDir, "p0.pem")
	shortSecret := testConfig(t, "HMAC-AES", "pathvector", 3, 7431)
	shortSecret.ClusterSecret = "abcd"
	straySecret := testConfig(t, "RSA", "pathvector", 3, 7431)
	straySecret.ClusterSecret = strings.Repeat("5a", seccrypto.SecretLen)
	for _, bad := range []struct {
		name string
		cfg  *cluster.Config
		want string
	}{
		{"policy typo", policyTypo, `unknown policy "RSAA"`},
		{"batch without rsa", batchWithoutRSA, "-batch requires the RSA scheme"},
		{"missing key", missingKey, `node "p2": policy RSA needs an RSA key`},
		{"key under keyless policy", strayKey, `node "p0" declares a key but policy NoAuth uses none`},
		{"short secret", shortSecret, "needs a cluster_secret of at least"},
		{"stray secret", straySecret, "policy RSA uses no shared secrets"},
	} {
		path := writeFile(t, t.TempDir(), "cluster.json", bad.cfg)
		for _, mode := range [][]string{{"-node", "p0"}, {"-allinone"}, {"-vet"}, {"-genkeys"}} {
			cases = append(cases, struct {
				name string
				args []string
				want string
			}{bad.name + " " + mode[0][1:], append([]string{"-config", path, "-debugaddr", held.Addr().String()}, mode...), bad.want})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := capture(t, tc.args)
			if code != 1 || !strings.Contains(errOut, tc.want) {
				t.Fatalf("exit %d, stderr %q; want exit 1 containing %q", code, errOut, tc.want)
			}
		})
	}
	if written, _ := os.ReadDir(keyDir); len(written) != 0 {
		t.Fatalf("a refused config had key files written: %v", written)
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
	cfgPath := writeFile(t, dir, "c.json", cfg)
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
