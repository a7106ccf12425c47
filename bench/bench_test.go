package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"secureblox/internal/apps"
	"secureblox/internal/core"
	"secureblox/internal/graph"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(data, n=4) and
	// statistics.median(data) from Python 3.
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 40}, 10, 20, 40},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize("s", c.data)
		if !near(s.Q1, c.q1) || !near(s.Median, c.q2) || !near(s.Q3, c.q3) {
			t.Errorf("%v: got q1=%g median=%g q3=%g, want %g %g %g", c.data, s.Q1, s.Median, s.Q3, c.q1, c.q2, c.q3)
		}
	}
	if s := summarize("s", nil); s.N != 0 || s.Median != 0 {
		t.Errorf("empty sample: %+v", s)
	}
	if got := quantileOf([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("quantileOf must sort: got %g", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]int{10: 0, 39: 0, 40: 75, 99: 75, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("n=%d: p%d, want p%d", n, got, want)
		}
	}
	data := make([]float64, 100)
	for i := range data {
		data[i] = float64(i + 1)
	}
	if s := summarize("ms", data); s.TailP != 90 || !near(s.Tail, 90.9) {
		t.Errorf("tail of 1..100: p%d=%g, want p90=90.9", s.TailP, s.Tail)
	}
}

func TestScaledSummaryKeepsTheSpread(t *testing.T) {
	s := summarize("s", []float64{1, 2, 3, 4, 5, 6, 7})
	h := s.scaled(0.5)
	if !near(h.Median, s.Median/2) || !near(h.Q1, s.Q1/2) || !near(h.Q3, s.Q3/2) || h.N != s.N {
		t.Errorf("scaled(0.5) of %+v = %+v", s, h)
	}
	if !near(h.spread(), s.spread()) {
		t.Errorf("spread changed: %g -> %g", s.spread(), h.spread())
	}
}

// The host probe is a yardstick only if every sample is the same work: the
// chunk checksums must add up to the same value whichever goroutine ran
// which chunk.
func TestHostProbeDoesTheSameWorkEverySample(t *testing.T) {
	p, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var want uint64
	for i := 0; i < 3; i++ {
		wall, cpu, sum := p.sample()
		if wall <= 0 || cpu <= 0 {
			t.Errorf("sample %d: wall %g s, cpu %g s", i, wall, cpu)
		}
		if i == 0 {
			want = sum
		} else if sum != want {
			t.Errorf("sample %d: checksum %x, first sample %x", i, sum, want)
		}
	}
	var serial uint64
	for chunk := 0; chunk < probeChunks; chunk++ {
		serial += probeChunk(p.tables[0], chunk)
	}
	if serial != want {
		t.Errorf("chunks run in order on one table: checksum %x, sample %x", serial, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 2, Start: 25, End: 35},
	}
	fillSelfTimes(spans)
	for id, want := range []int64{50, 20, 20, 30, 10} {
		if spans[id].Self != want {
			t.Errorf("span %d: self %d, want %d", id, spans[id].Self, want)
		}
	}
	var nilRec *Recorder
	if id := nilRec.Begin(1, -1, "x"); id != -1 || nilRec.Spans() != nil {
		t.Error("a nil recorder must record nothing")
	}
	nilRec.End(-1)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecMeetsTheContractAndMatchesTheCheckedInFile(t *testing.T) {
	spec := benchmarkSpec()
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var setup Metric
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	for _, m := range append(append([]Metric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}

	checkedIn, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(checkedIn, spec) {
		t.Error("BENCHMARK.json differs from the program's definition; regenerate it with: bash bench/run.sh --print-spec > BENCHMARK.json")
	}
}

// smoke runs one traced rep of a shrunk workload and checks it passes its
// oracle, fills every per-workload layer metric and records the span tree.
func smoke(t *testing.T, w Workload) {
	t.Helper()
	rec := NewRecorder()
	s, err := runRep(w, 5, rec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.FixpointS <= 0 || s.SetupS <= 0 || s.NodeKB <= 0 || s.AllocMB <= 0 {
		t.Errorf("end-to-end values must be positive: %+v", s)
	}
	for _, m := range perWorkloadLayer {
		if _, ok := s.Layer[m.Name]; !ok {
			t.Errorf("traced rep did not fill %s", m.Name)
		}
	}
	if len(s.Layer) != len(perWorkloadLayer) {
		t.Errorf("traced rep filled %d layer metrics, the list has %d", len(s.Layer), len(perWorkloadLayer))
	}
	if s.Layer["dist.txns"] <= 0 || s.Layer["dist.stage_fixpoint_s"] <= 0 {
		t.Errorf("no transactions or fixpoint spans observed: %v", s.Layer)
	}
	got := map[string]bool{}
	for _, sp := range rec.Spans() {
		got[sp.Name] = true
		if sp.End < sp.Start || sp.Self < 0 || sp.Trace != 1 {
			t.Errorf("bad span %+v", sp)
		}
	}
	for _, want := range []string{"rep", "setup", "core.compile", "seccrypto.trustsetup", "core.newcluster", "run", "load", "detect", "check", "stop"} {
		if !got[want] {
			t.Errorf("span %q missing", want)
		}
	}
	if u, err := runRep(w, 5, nil, 0); err != nil || u.Layer != nil {
		t.Errorf("untraced rep: layer=%v err=%v", u.Layer, err)
	}
}

func TestSmokePathVector(t *testing.T) {
	w, _ := workloadByName("pv_rsabatch_udp")
	w.N = 4
	smoke(t, w)
}

func TestSmokeHashJoin(t *testing.T) {
	w, _ := workloadByName("hj_noauth_udp")
	w.N, w.SizeA, w.SizeB, w.JoinValues = 4, 60, 50, 12
	smoke(t, w)
}

func TestOraclesRejectAClusterThatDidNotRun(t *testing.T) {
	hj, err := core.NewCluster(core.ClusterConfig{N: 2, Query: apps.HashJoinQuery, Policy: core.PolicyConfig{Delegation: core.DelegateNone}})
	if err != nil {
		t.Fatal(err)
	}
	defer hj.Stop()
	if _, err := checkHashJoin(hj, 10); err == nil {
		t.Error("an empty joinresult must fail the hash-join oracle")
	}
	pv, err := core.NewCluster(core.ClusterConfig{N: 3, Query: apps.PathVectorQuery, Policy: core.PolicyConfig{Delegation: core.DelegateNone}})
	if err != nil {
		t.Fatal(err)
	}
	defer pv.Stop()
	if _, err := checkPathVector(pv, graph.RandomConnected(3, 2, 1)); err == nil {
		t.Error("missing bestcost entries must fail the path-vector oracle")
	}
}

func TestJudge(t *testing.T) {
	m := Metric{Name: "fixpoint_s", Unit: "s", Better: "lower", Bound: 0.10}
	tight := func(median float64) Summary {
		return Summary{N: 10, Median: median, Q1: median * 0.99, Q3: median * 1.01}
	}
	wide := Summary{N: 10, Median: 1, Q1: 0.9, Q3: 1.1}
	for _, c := range []struct {
		name string
		m    Metric
		a, b Summary
		want string
	}{
		{"same", m, tight(1), tight(1.05), verdictWithin},
		{"worse by more than the bound", m, tight(1), tight(1.2), verdictRegressed},
		{"better", m, tight(1), tight(0.5), verdictWithin},
		{"spread wider than the bound", m, wide, tight(1), verdictUnresolved},
		{"regression beats unresolved", m, wide, tight(1.5), verdictRegressed},
		{"no samples", m, tight(1), Summary{}, verdictMissing},
		{"higher is better", Metric{Better: "higher", Bound: 0.10}, tight(1), tight(0.8), verdictRegressed},
	} {
		if _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, failed int) string {
		path := filepath.Join(dir, name)
		for seed := 1; seed <= 10; seed++ {
			for _, w := range workloads {
				r := Report{Workload: w.Name, Seed: int64(seed), Attempted: 20, Failed: failed, Metrics: map[string]Summary{}}
				for _, m := range endToEnd {
					r.Metrics[m.Name] = Summary{Unit: m.Unit, N: 20, Median: scale * (1 + 0.001*float64(seed))}
				}
				if err := writeJSON(path, r, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	spec := filepath.Join(dir, "BENCHMARK.json")
	data, err := json.Marshal(benchmarkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spec, data, 0o644); err != nil {
		t.Fatal(err)
	}
	a, same, slow, broken := write("a", 1, 0), write("same", 1.01, 0), write("slow", 1.5, 0), write("broken", 1, 1)
	for _, c := range []struct {
		b    string
		ok   bool
		text string
	}{{same, true, verdictWithin}, {slow, false, verdictRegressed}, {broken, false, "failed reps"}} {
		var out strings.Builder
		ok, err := compareFiles(&out, spec, a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.text) {
			t.Errorf("compare with %s: ok=%v, output:\n%s", filepath.Base(c.b), ok, out.String())
		}
		if rows := strings.Count(out.String(), "\n"); rows < 1+len(workloads)*len(endToEnd) {
			t.Errorf("want one row per (metric, workload), got %d lines", rows)
		}
	}
}
