package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"secureblox/internal/obs"
)

// TestRealProcesses execs the built sbxnode and sbx binaries for what only
// separate OS processes show: each process's /readyz answers 503 until the
// ready barrier passes and 200 after it, `sbx top --once -config` renders
// every principal live from the config's debug_addr entries, `sbx trace`
// rebuilds a multi-node wave from the span files -dump leaves behind, and a
// chaos-plan crash is a real exit 7. Everything else a deployment asserts is
// TestDeployments', in-process.
func TestRealProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binaries")
	}
	bin := t.TempDir()
	for _, name := range []string{"sbxnode", "sbx"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, name), "../"+name).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
	}
	type proc struct {
		cmd      *exec.Cmd
		out, err bytes.Buffer
	}
	start := func(args ...string) *proc {
		p := &proc{cmd: exec.Command(filepath.Join(bin, "sbxnode"), args...)}
		p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.err
		if err := p.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if p.cmd.ProcessState == nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
			if t.Failed() {
				t.Logf("sbxnode %s\nstderr:\n%s", strings.Join(args, " "), &p.err)
			}
		})
		return p
	}
	wait := func(p *proc) int {
		p.cmd.Wait()
		return p.cmd.ProcessState.ExitCode()
	}
	trace := func(args ...string) string {
		out, err := exec.Command(filepath.Join(bin, "sbx"), append([]string{"trace"}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("sbx trace %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	poll := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !ok(); time.Sleep(25 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	client := &http.Client{Timeout: time.Second}
	readyz := func(addr string) int {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err != nil {
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// The observed run: three processes under a 150 ms delay plan, which
	// stretches a sub-second fixpoint to seconds without changing its result,
	// giving the outside observer a window.
	dir := t.TempDir()
	cfg := testConfig(t, "RSA", "pathvector", 3, 7461)
	for i := range cfg.Nodes {
		cfg.Nodes[i].DebugAddr = fmt.Sprintf("127.0.0.1:%d", 7961+i)
	}
	cfgPath := writeFile(t, dir, "cluster.json", cfg)
	plan := writeFile(t, dir, "delay.json", `{"seed": 7, "links": [{"from": "*", "to": "*", "delay_ms": 150}]}`)
	var procs []*proc
	for i, n := range cfg.Nodes {
		procs = append(procs, start("-config", cfgPath, "-node", n.Principal, "-timeout", "60s", "-chaos", plan, "-dump", dir))
		// The seed and the first joiner wait for a member that is not up yet:
		// neither can pass the ready barrier.
		if i < 2 {
			poll(n.Principal+"'s debug server", func() bool { return readyz(n.DebugAddr) != 0 })
			if code := readyz(n.DebugAddr); code != http.StatusServiceUnavailable {
				t.Fatalf("%s /readyz answered %d before the barrier, want 503", n.Principal, code)
			}
		}
	}
	for _, n := range cfg.Nodes {
		poll(n.Principal+"'s /readyz to flip to 200", func() bool { return readyz(n.DebugAddr) == http.StatusOK })
	}
	// Counters start at zero right after the barrier: retry until every
	// principal shows transactions and sent messages.
	poll("sbx top to show three live principals", func() bool {
		out, err := exec.Command(filepath.Join(bin, "sbx"), "top", "--once", "-config", cfgPath).Output()
		rows := 0
		for _, l := range strings.Split(string(out), "\n") {
			f := strings.Fields(l)
			if len(f) > 5 && strings.HasPrefix(f[0], "p") && f[3] != "0" && f[5] != "0" {
				rows++
			}
		}
		return err == nil && rows == 3
	})
	var outs []string
	for i, p := range procs {
		if code := wait(p); code != 0 {
			t.Fatalf("p%d exit %d", i, code)
		}
		outs = append(outs, p.out.String())
	}
	code, ref, errOut := capture(t, []string{"-config", cfgPath, "-allinone", "-timeout", "60s"})
	if got := sortedLines(outs...); code != 0 || got != sortedLines(ref) || got == "" {
		t.Fatalf("processes' result set differs from -allinone (exit %d, %s):\n--- processes:\n%s\n--- allinone:\n%s", code, errOut, got, ref)
	}

	// sbx trace over the dumps: the deepest wave tops the list and spans at
	// least two nodes, and its tree holds exactly the dumps' spans of it.
	var dumpArgs []string
	var spans []obs.Span
	for _, n := range cfg.Nodes {
		path := filepath.Join(dir, n.Principal+".spans.json")
		s, err := obs.ReadSpanDump(path)
		if err != nil || len(s) == 0 {
			t.Fatalf("%s span dump: %d spans, %v", n.Principal, len(s), err)
		}
		spans = append(spans, s...)
		dumpArgs = append(dumpArgs, "-dump", path)
	}
	list := strings.Split(trace(append(dumpArgs, "-list")...), "\n")
	top1 := strings.Fields(list[1])
	if nodes, _ := strconv.Atoi(top1[2]); nodes < 2 {
		t.Fatalf("deepest wave reaches %d node(s):\n%s", nodes, strings.Join(list, "\n"))
	}
	tree := trace(append(dumpArgs, top1[0])...)
	want := 0
	for _, s := range spans {
		if strconv.FormatUint(s.Trace, 10) == top1[0] {
			want++
		}
	}
	if head := fmt.Sprintf("trace %s: %d spans across", top1[0], want); !strings.HasPrefix(tree, head) || !strings.Contains(tree, "└─") {
		t.Fatalf("wave tree is not a %q tree:\n%s", head, tree)
	}

	// A crash the plan schedules is a real exit 7; the survivors, under
	// abort, name the silent principal and exit 3.
	crashCfg := writeFile(t, t.TempDir(), "cluster.json", testConfig(t, "NoAuth", "pathvector", 3, 7462))
	crash := writeFile(t, dir, "crash.json", `{"seed": 7, "crashes": [{"node": "p2", "at_ms": 0}]}`)
	procs = procs[:0]
	for _, p := range []string{"p0", "p1", "p2"} {
		procs = append(procs, start("-config", crashCfg, "-node", p, "-timeout", "60s", "-chaos", crash, "-unresponsive", "2s"))
	}
	for i, p := range procs {
		wantCode, code := 3, wait(p)
		if i == 2 {
			wantCode = 7
		}
		if code != wantCode || (wantCode == 3 && !strings.Contains(p.err.String(), "no termination report from p2")) {
			t.Errorf("p%d: exit %d, want %d", i, code, wantCode)
		}
	}
}
