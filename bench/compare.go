package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Spec is BENCHMARK.json: the contract between this program and the
// driver that judges later changes with it.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []Metric       `json:"end_to_end"`
	PerLayer   []Metric       `json:"per_layer"`
}

type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures. The driver makes
// 4 + 22 × 4 = 92 runs and allows 3420 s for all of them and two builds:
// a run takes about 1.5 s more than it measures (build check, warm-up rep,
// minus the rep that no longer fits), a traced run about 10 s more for the
// layer probes, which leaves a seventh of the allowance spare.
const runSeconds = 28

// benchmarkSpec is BENCHMARK.json as this program defines it; a test keeps
// the checked-in file equal to it.
func benchmarkSpec() Spec {
	s := Spec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, SpecWorkload{Name: w.Name, Why: w.Why})
	}
	return s
}

func loadSpec(path string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// loadReports reads the JSON lines one or more runs appended with --out.
func loadReports(path string) ([]Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Verdicts of one (metric, workload) row.
const (
	verdictWithin     = "within"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictMissing    = "MISSING"
)

// judge applies a metric's bound to the per-run values of two sets: B has
// regressed when its median is worse than A's by more than the bound; if
// not, and either set's quartile spread exceeds the bound, the row is
// unresolved rather than unchanged — the runs cannot tell.
func judge(m Metric, a, b Summary) (change float64, verdict string) {
	if a.N == 0 || b.N == 0 {
		return 0, verdictMissing
	}
	change = ratio(b.Median-a.Median, a.Median)
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case worse > m.Bound:
		return change, verdictRegressed
	case a.spread() > m.Bound || b.spread() > m.Bound:
		return change, verdictUnresolved
	}
	return change, verdictWithin
}

// compareFiles prints one row per (end-to-end metric, workload) for two
// sets of untraced runs and reports whether every row is within its bound
// and no run had a failed rep.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	sets := make([]map[string]map[string][]float64, 2) // set → workload → metric → per-run medians
	failed := make([]map[string]int, 2)
	for i, p := range []string{pathA, pathB} {
		reports, err := loadReports(p)
		if err != nil {
			return false, err
		}
		sets[i], failed[i] = map[string]map[string][]float64{}, map[string]int{}
		for _, r := range reports {
			if r.Trace {
				continue
			}
			failed[i][r.Workload] += r.Failed
			if sets[i][r.Workload] == nil {
				sets[i][r.Workload] = map[string][]float64{}
			}
			for name, s := range r.Metrics {
				if s.N > 0 {
					sets[i][r.Workload][name] = append(sets[i][r.Workload][name], s.Median)
				}
			}
		}
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-11s %-4s %3s %12s %7s %3s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "unit", "nA", "median A", "iqr A", "nB", "median B", "iqr B", "change", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a := summarize(m.Unit, sets[0][wl.Name][m.Name])
			b := summarize(m.Unit, sets[1][wl.Name][m.Name])
			change, verdict := judge(m, a, b)
			if verdict != verdictWithin {
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-11s %-4s %3d %12.6g %6.1f%% %3d %12.6g %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, m.Unit, a.N, a.Median, 100*a.spread(), b.N, b.Median, 100*b.spread(),
				100*change, 100*m.Bound, verdict)
		}
		if fa, fb := failed[0][wl.Name], failed[1][wl.Name]; fa+fb > 0 {
			ok = false
			fmt.Fprintf(w, "%-16s failed reps: %d in A, %d in B\n", wl.Name, fa, fb)
		}
	}
	return ok, nil
}
