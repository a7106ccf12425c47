// Command bench is the repository's benchmark: the one program every later
// performance or simplicity claim is judged with. BENCHMARK.json at the
// repository root names it; README.md in this directory explains the
// workloads, the metrics and how they interact.
//
// One invocation measures one workload for a fixed time:
//
//	bash bench/run.sh --workload pv_noauth_mem --seed 7 --seconds 28 --trace 0
//
// It prints every metric by name and, as the last line of standard output,
// one JSON object {correct, attempted, failed, metrics}. With --trace 0 the
// metrics are the end-to-end ones, measured with the benchmark's tracing
// off; with --trace 1 they are the per-layer ones, from traced reps plus
// the workload-independent layer probes, and the spans are written out.
//
//	bash bench/run.sh --compare A.jsonl B.jsonl
//
// applies the bounds in BENCHMARK.json to two sets of runs recorded with
// --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"secureblox/internal/obs"
)

// Metric is one entry of BENCHMARK.json's end_to_end or per_layer list.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, each the median over
// the run's reps; the three times are then divided by the run's host
// factors (hostspeed.go), the two counts are as measured. The bound is the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression; README.md records the measured spreads the
// bounds were set from. Failed reps are not a metric here: they are the
// result line's attempted/failed counts, and any failure makes the run
// incorrect.
var endToEnd = []Metric{
	{Name: "fixpoint_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "node_kb", Unit: "KB", Better: "lower", Bound: 0.10},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

func (s Sample) endToEnd() map[string]float64 {
	return map[string]float64{
		"fixpoint_s": s.FixpointS, "setup_s": s.SetupS, "cpu_s": s.CPUS,
		"node_kb": s.NodeKB, "alloc_mb": s.AllocMB,
	}
}

// perWorkloadLayer are the per-layer metrics taken from the traced reps of
// the workload being run (runRep fills them); layerProbes in layers.go are
// the workload-independent ones.
var perWorkloadLayer = []Metric{
	{Name: "dist.txns", Unit: "count", Better: "lower"},
	{Name: "dist.msgs_sent", Unit: "count", Better: "lower"},
	{Name: "dist.bytes_per_msg", Unit: "B", Better: "higher"},
	{Name: "dist.txn_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.txn_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.converge_p50_s", Unit: "s", Better: "lower"},
	{Name: "dist.detect_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.violations", Unit: "count", Better: "lower"},
	{Name: "dist.stage_decode_s", Unit: "s", Better: "lower"},
	{Name: "dist.stage_verify_s", Unit: "s", Better: "lower"},
	{Name: "dist.stage_fixpoint_s", Unit: "s", Better: "lower"},
	{Name: "dist.stage_sign_s", Unit: "s", Better: "lower"},
	{Name: "dist.stage_ship_s", Unit: "s", Better: "lower"},
	{Name: "engine.probes_per_txn", Unit: "count", Better: "lower"},
	{Name: "engine.leading_scans_per_txn", Unit: "count", Better: "lower"},
	{Name: "engine.rounds_per_txn", Unit: "count", Better: "lower"},
	{Name: "engine.scan_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.fullscan_fallbacks", Unit: "count", Better: "lower"},
	{Name: "seccrypto.sign_ops", Unit: "count", Better: "lower"},
	{Name: "seccrypto.verify_ops", Unit: "count", Better: "lower"},
	{Name: "seccrypto.signpool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "seccrypto.verifypool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "transport.retransmits", Unit: "count", Better: "lower"},
	{Name: "transport.dup_drops", Unit: "count", Better: "lower"},
	{Name: "transport.send_deferrals", Unit: "count", Better: "lower"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "seccrypto.trustsetup_ms", Unit: "ms", Better: "lower"},
	{Name: "core.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.load_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.stop_ms", Unit: "ms", Better: "lower"},
	{Name: "apps.oracle_share", Unit: "ratio", Better: "higher"},
}

// perRun are the per-workload metrics a single rep cannot give: traced over
// untraced fixpoint_s within one traced run, and the run's host factors
// (median probe time over the reference time; 1 on the reference host).
var (
	traceOverhead  = Metric{Name: "obs.trace_overhead", Unit: "ratio", Better: "lower"}
	hostWallFactor = Metric{Name: "bench.host_wall_factor", Unit: "ratio", Better: "lower"}
	hostCPUFactor  = Metric{Name: "bench.host_cpu_factor", Unit: "ratio", Better: "lower"}
	perRun         = []Metric{traceOverhead, hostWallFactor, hostCPUFactor}
)

// rawTimes are the three scaled metrics as measured, printed with every
// untraced run next to the factors they were divided by.
var rawTimes = []Metric{
	{Name: "raw.fixpoint_s", Unit: "s", Better: "lower"},
	{Name: "raw.setup_s", Unit: "s", Better: "lower"},
	{Name: "raw.cpu_s", Unit: "s", Better: "lower"},
}

// perLayer is the whole per_layer list of BENCHMARK.json.
func perLayer() []Metric {
	out := append(append([]Metric(nil), perWorkloadLayer...), perRun...)
	for _, p := range layerProbes {
		out = append(out, p.Metric)
	}
	return out
}

// Env is the reproducibility block of a report.
type Env struct {
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func currentEnv() Env {
	host, _ := os.Hostname() // a missing name only blanks the field
	commit := "unknown"      // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return Env{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// Report is everything one run measured. The workload seed is the only
// input: rep seeds, graphs and tables all derive from it.
type Report struct {
	Env       Env                `json:"env"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]Summary `json:"metrics"`
}

// minReps is measured even when --seconds is too short for it, so a run
// always has a median to report. After maxFailures failed reps the run is
// incorrect whatever follows, so it stops.
const (
	minReps     = 3
	maxFailures = 5
)

// runWorkload measures w for about `seconds`: one discarded warm-up rep,
// then reps until the next one would not fit, each on its own inputs drawn
// from the workload seed and each preceded by two samples of the host
// probe. A traced run alternates traced and untraced reps (their fixpoint_s
// ratio is the tracing overhead) and then runs the layer probes.
func runWorkload(w Workload, seed int64, seconds float64, traced bool) (Report, []Span) {
	rep := Report{Env: currentEnv(), Workload: w.Name, Seed: seed, Seconds: seconds, Trace: traced, Metrics: map[string]Summary{}}
	seeds := rand.New(rand.NewSource(seed))
	var rec *Recorder
	if traced {
		rec = NewRecorder()
		obs.SetSpanCap(tracedSpanCap)
	}

	probe, err := newHostProbe()
	if err != nil {
		fatal(fmt.Errorf("host probe: %w", err))
	}
	defer probe.Close()

	if _, err := runRep(w, seeds.Int63(), nil, 0); err != nil {
		fmt.Printf("warm-up rep failed (discarded): %v\n", err)
	}

	e2e := map[string][]float64{}
	layer := map[string][]float64{}
	var tracedFix, untracedFix, walls, probeWall, probeCPU []float64
	begin := time.Now()
	for i := 0; ; i++ {
		if rep.Failed >= maxFailures || i >= minReps && time.Since(begin).Seconds()+quantileOf(walls, 0.5) > seconds {
			break
		}
		repSeed := seeds.Int63()
		r := rec
		if i%2 == 1 {
			r = nil // untraced rep of a traced run
		}
		rep.Attempted++
		// The previous rep's cluster is stopped; collecting it first keeps
		// the collector out of the probe.
		runtime.GC()
		for range 2 {
			wall, cpu, _ := probe.sample()
			probeWall, probeCPU = append(probeWall, wall), append(probeCPU, cpu)
		}
		s, err := runRep(w, repSeed, r, i+1)
		if err != nil {
			rep.Failed++
			msg := fmt.Sprintf("rep %d (workload seed %d, rep seed %d): %v", i, seed, repSeed, err)
			rep.Failures = append(rep.Failures, msg)
			fmt.Println("FAILED", msg)
			continue
		}
		walls = append(walls, s.Wall.Seconds())
		if !traced {
			for k, v := range s.endToEnd() {
				e2e[k] = append(e2e[k], v)
			}
			continue
		}
		if r == nil {
			untracedFix = append(untracedFix, s.FixpointS)
			continue
		}
		tracedFix = append(tracedFix, s.FixpointS)
		for k, v := range s.Layer {
			layer[k] = append(layer[k], v)
		}
	}

	wallFactor := quantileOf(probeWall, 0.5) / hostRefWall
	cpuFactor := quantileOf(probeCPU, 0.5) / hostRefCPU
	rep.Metrics[hostWallFactor.Name] = summarize(hostWallFactor.Unit, []float64{wallFactor})
	rep.Metrics[hostCPUFactor.Name] = summarize(hostCPUFactor.Unit, []float64{cpuFactor})
	if !traced {
		for _, m := range endToEnd {
			rep.Metrics[m.Name] = summarize(m.Unit, e2e[m.Name])
		}
		scale := func(name string, factor float64) {
			rep.Metrics["raw."+name] = rep.Metrics[name]
			rep.Metrics[name] = rep.Metrics[name].scaled(1 / factor)
		}
		scale("fixpoint_s", wallFactor)
		scale("setup_s", wallFactor)
		scale("cpu_s", cpuFactor)
		return rep, nil
	}
	for _, m := range perWorkloadLayer {
		rep.Metrics[m.Name] = summarize(m.Unit, layer[m.Name])
	}
	rep.Metrics[traceOverhead.Name] = summarize(traceOverhead.Unit,
		[]float64{ratio(quantileOf(tracedFix, 0.5), quantileOf(untracedFix, 0.5))})
	for name, s := range runLayerProbes(rec, rep.Attempted+1, seed) {
		rep.Metrics[name] = s
	}
	for _, m := range perLayer() {
		if rep.Metrics[m.Name].N == 0 {
			rep.Failed++
			rep.Failures = append(rep.Failures, "no sample for per-layer metric "+m.Name)
		}
	}
	return rep, rec.Spans()
}

// printReport prints every metric by name with its unit, sample count,
// median and quartiles — the metrics in defs, then those in extra — and then
// the result line the driver reads, which carries only the metrics in defs.
func printReport(rep Report, defs, extra []Metric) {
	fmt.Printf("workload %s seed %d seconds %g trace %v | host %s nproc %d GOMAXPROCS %d %s commit %s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace,
		rep.Env.Host, rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Commit)
	fmt.Printf("%-32s %-6s %4s %14s %14s %14s  %s\n", "metric", "unit", "n", "median", "q1", "q3", "tail")
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	for i, m := range append(append([]Metric(nil), defs...), extra...) {
		s := rep.Metrics[m.Name]
		tail := ""
		if s.TailP > 0 {
			tail = fmt.Sprintf("p%d=%.6g", s.TailP, s.Tail)
		}
		fmt.Printf("%-32s %-6s %4d %14.6g %14.6g %14.6g  %s\n", m.Name, m.Unit, s.N, s.Median, s.Q1, s.Q3, tail)
		if i >= len(defs) {
			continue
		}
		if s.N == 0 {
			line.Correct = false
		}
		line.Metrics[m.Name] = value{Value: s.Median, Unit: m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any, appendLine bool) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendLine {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	workload := flag.String("workload", "", "workload to run (one of BENCHMARK.json's names)")
	seed := flag.Int64("seed", 1, "workload seed: the only input, every graph and table derives from it")
	seconds := flag.Float64("seconds", runSeconds, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	out := flag.String("out", "", "append the full report (env, quartiles, failures) as one JSON line to this file")
	traceFile := flag.String("tracefile", ".bench_build/trace.json", "where a traced run writes its spans")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition (bounds for -compare)")
	compare := flag.Bool("compare", false, "compare two report files: -compare A.jsonl B.jsonl")
	printSpec := flag.Bool("print-spec", false, "print BENCHMARK.json as this program defines it")
	flag.Parse()

	switch {
	case *printSpec:
		data, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		ok, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, ok := workloadByName(*workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", ")))
	}
	rep, spans := runWorkload(w, *seed, *seconds, *trace != 0)
	if *trace != 0 {
		doc := struct {
			Env      Env    `json:"env"`
			Workload string `json:"workload"`
			Seed     int64  `json:"seed"`
			Spans    []Span `json:"spans"`
		}{rep.Env, rep.Workload, rep.Seed, spans}
		if err := writeJSON(*traceFile, doc, false); err != nil {
			fatal(fmt.Errorf("write trace: %w", err))
		}
		fmt.Printf("wrote %d spans to %s\n", len(spans), *traceFile)
	}
	if *out != "" {
		if err := writeJSON(*out, rep, true); err != nil {
			fatal(fmt.Errorf("write report: %w", err))
		}
	}
	defs, extra := endToEnd, append(append([]Metric(nil), rawTimes...), hostWallFactor, hostCPUFactor)
	if *trace != 0 {
		defs, extra = perLayer(), nil
	}
	printReport(rep, defs, extra)
}
