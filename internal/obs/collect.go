package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// This file is the cluster-collector side of the observability plane: the
// scrape, parse and render primitives `sbx top` and `sbx trace` are built
// from. They live here (not in cmd/sbx) so the HTTP round-trip tests can
// drive exactly the collector's fetch path against in-process nodes.

// NodeScrape is one node's observability snapshot as seen from outside: its
// /metrics families summed per family name (label sets collapsed — one OS
// process serves one node), and its principal and lifecycle state read off
// its sbx_lifecycle_state series.
type NodeScrape struct {
	Addr      string
	Principal string
	State     string
	Families  map[string]float64
	At        time.Time
	Err       error
}

// Counter returns the summed value of a metric family (0 when absent).
func (s NodeScrape) Counter(name string) float64 { return s.Families[name] }

// ScrapeNode fetches one node's /metrics; a failed fetch sets Err.
func ScrapeNode(client *http.Client, addr string) NodeScrape {
	out := NodeScrape{Addr: addr, At: time.Now()}
	body, err := httpGet(client, "http://"+addr+"/metrics")
	if err != nil {
		out.Err = err
		return out
	}
	out.Families = SumPromFamilies(string(body))
	out.Principal, out.State = lifecycleOf(string(body))
	return out
}

// lifecycleOf reads a node's principal and state from its one
// sbx_lifecycle_state series, its latest run's. None, or several, leaves both
// empty.
func lifecycleOf(text string) (principal, state string) {
	n := 0
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, `sbx_lifecycle_state{principal="`)
		if !ok {
			continue
		}
		p, v, ok := strings.Cut(rest, `"} `)
		s, err := strconv.Atoi(v)
		if !ok || err != nil {
			continue
		}
		principal, state = p, State(s).String()
		n++
	}
	if n != 1 {
		return "", ""
	}
	return principal, state
}

// httpGet fetches a URL; a status other than 200 is an error.
func httpGet(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return body, nil
}

// SumPromFamilies parses Prometheus text exposition and sums every series
// per family name with labels stripped (histogram _bucket/_sum/_count
// lines keep their suffixed names). Lines that do not parse are skipped —
// a scraper must not die on an exposition it half-understands.
func SumPromFamilies(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		rest := ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			rest = rest[i+1:]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}

// FetchSpans fetches one node's span dump over HTTP, optionally filtered
// to one trace (trace 0 fetches everything).
func FetchSpans(client *http.Client, addr string, trace uint64) ([]Span, error) {
	url := "http://" + addr + "/debug/spans"
	if trace != 0 {
		url += "?trace=" + strconv.FormatUint(trace, 10)
	}
	body, err := httpGet(client, url)
	if err != nil {
		return nil, err
	}
	var spans []Span
	if err := json.Unmarshal(body, &spans); err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return spans, nil
}

// ReadSpanDump loads a span dump written by `sbxnode -dump` (the same
// JSON array /debug/spans serves) — the offline input of `sbx trace` when
// the cluster is gone and only artifacts remain.
func ReadSpanDump(path string) ([]Span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []Span
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spans, nil
}

// TraceSummary aggregates one trace across a merged span collection.
type TraceSummary struct {
	Trace uint64
	Spans int
	Nodes int
	Depth int
	Start time.Time
}

// SummarizeTraces groups a merged span collection by trace ID — the
// `sbx trace -list` view that finds the interesting wave to render.
func SummarizeTraces(all []Span) []TraceSummary {
	type agg struct {
		spans int
		nodes map[string]bool
		start time.Time
	}
	byTrace := make(map[uint64]*agg)
	for _, s := range all {
		if s.Trace == 0 {
			continue
		}
		a := byTrace[s.Trace]
		if a == nil {
			a = &agg{nodes: make(map[string]bool), start: s.Start}
			byTrace[s.Trace] = a
		}
		a.spans++
		a.nodes[s.Node] = true
		if s.Start.Before(a.start) {
			a.start = s.Start
		}
	}
	out := make([]TraceSummary, 0, len(byTrace))
	for id, a := range byTrace {
		sum := TraceSummary{Trace: id, Spans: a.spans, Nodes: len(a.nodes), Start: a.start}
		if w := BuildWave(id, all); w != nil {
			sum.Depth = w.Depth()
		}
		out = append(out, sum)
	}
	slices.SortFunc(out, func(a, b TraceSummary) int {
		return cmp.Or(cmp.Compare(b.Nodes, a.Nodes), cmp.Compare(b.Spans, a.Spans), cmp.Compare(a.Trace, b.Trace))
	})
	return out
}

// SpanCount walks a wave tree and counts its spans — the figure that must
// match the sum of the per-node dumps the tree was built from.
func (w *WaveNode) SpanCount() int {
	if w == nil {
		return 0
	}
	n := len(w.Spans)
	for _, c := range w.Children {
		n += c.SpanCount()
	}
	return n
}

// stageOrder renders per-node stage latencies in causal pipeline order.
var stageOrder = []string{StageDecode, StageFixpoint, StageSign, StageShip}

// stageLine aggregates one node's span durations per stage.
func stageLine(spans []Span) string {
	totals := make(map[string]time.Duration)
	for _, s := range spans {
		totals[s.Stage] += s.Dur
	}
	var parts []string
	for _, st := range stageOrder {
		if d, ok := totals[st]; ok {
			parts = append(parts, fmt.Sprintf("%s %s", st, fmtDur(d)))
		}
	}
	for st, d := range totals {
		if !slices.Contains(stageOrder, st) {
			parts = append(parts, fmt.Sprintf("%s %s", st, fmtDur(d)))
		}
	}
	return strings.Join(parts, " · ")
}

// fmtDur renders a duration at µs resolution without trailing noise.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// mergeNote says what inbound group commit did to the wave at one node: a
// transaction of this trace absorbed other datagrams, or this wave's datagram
// was absorbed by a transaction of another trace and continues there — so a
// wave that ends in a bare decode span reads as merged, not as lost.
func mergeNote(spans []Span) string {
	var note string
	absorbed := 0
	for _, s := range spans {
		absorbed = max(absorbed, s.Absorbed)
		if s.Into != 0 {
			note = fmt.Sprintf(" · merged into trace %d", s.Into)
		}
	}
	if absorbed > 1 {
		note = fmt.Sprintf(" · merged %d datagrams", absorbed) + note
	}
	return note
}

// WriteWaveASCII renders a wave's causal tree as indented ASCII with
// per-stage latencies — the `sbx trace` view of one derivation wave.
func WriteWaveASCII(w io.Writer, root *WaveNode) {
	if root == nil {
		fmt.Fprintln(w, "(no spans)")
		return
	}
	var walk func(n *WaveNode, prefix string, last, isRoot bool)
	walk = func(n *WaveNode, prefix string, last, isRoot bool) {
		line, childPrefix := prefix, prefix
		if !isRoot {
			if last {
				line += "└─ "
				childPrefix += "   "
			} else {
				line += "├─ "
				childPrefix += "│  "
			}
		}
		name := n.Principal
		if name == "" {
			name = "?"
		}
		fmt.Fprintf(w, "%s @%s hop %d (%d spans) — %s%s\n",
			line+name, n.Node, n.Hop, len(n.Spans), stageLine(n.Spans), mergeNote(n.Spans))
		for i, c := range n.Children {
			walk(c, childPrefix, i == len(n.Children)-1, false)
		}
	}
	walk(root, "", false, true)
}
