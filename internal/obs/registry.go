// Package obs is the unified observability layer every subsystem reports
// into: a process-wide metrics registry (counters, gauges, latency
// histograms, registered by name with labels and rendered in Prometheus
// text format) and cross-node wave tracing (trace-ID-stamped spans per
// pipeline stage with a causal-tree collector). The paper's entire
// evaluation (Figures 4–12) is an observability exercise — per-node
// communication overhead, transaction durations, convergence CDFs — and
// this package is where all of those measurements now live.
//
// The registry is deliberately dependency-free (stdlib only) so every
// layer — engine, dist, seccrypto, transport, wire — can report into it
// without import cycles.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach dimensions to a metric series (principal, policy, stage).
// A nil or empty map is a valid unlabeled series.
type Labels map[string]string

// Counter is a monotonically increasing series.
type Counter struct {
	v      atomic.Int64
	parent *Counter // nil for a registered series
}

// Add increments the counter — and every counter it rolls up into — by n
// (n must be non-negative).
func (c *Counter) Add(n int64) {
	for ; c != nil; c = c.parent {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count: for a child, its own adds only.
func (c *Counter) Value() int64 { return c.v.Load() }

// Child returns an unregistered instance counter that rolls up into c: an
// Add on the child is also an Add on c, so one increment serves both the
// instance's exact reading (a node's traffic, an endpoint's retransmits) and
// the cumulative registered series, which keeps what discarded children
// added. The child itself is never rendered.
func (c *Counter) Child() *Counter { return &Counter{parent: c} }

// Gauge is a series that can go up and down. A gauge registered with
// GaugeFunc instead reports whatever its function returns at scrape time.
type Gauge struct {
	v  atomic.Int64 // math.Float64bits
	mu sync.Mutex
	fn func() float64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.Store(int64(math.Float64bits(v))) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.v.Load()
		next := int64(math.Float64bits(math.Float64frombits(uint64(old)) + delta))
		if g.v.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the gauge's current value (the function's result for
// func-backed gauges).
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	if fn != nil {
		return fn()
	}
	return math.Float64frombits(uint64(g.v.Load()))
}

func (g *Gauge) setFunc(fn func() float64) {
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
}

// DefBuckets are the default latency histogram bounds in seconds, spanning
// the sub-millisecond transaction commits of NoAuth memnet runs up to the
// multi-second fixpoints of RSA UDP sweeps.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket latency histogram. Observations are
// lock-free; bucket bounds are immutable after registration.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; an implicit +Inf bucket follows
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64   // math.Float64bits, CAS-updated
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := int64(math.Float64bits(math.Float64frombits(uint64(old)) + v))
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot returns a consistent-enough copy of the histogram's state for
// rendering and quantile estimation. (Bucket counts are read individually,
// so a scrape racing observations may be off by in-flight samples — the
// usual Prometheus semantics.)
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(uint64(h.sum.Load()))
	return s
}

// HistSnapshot is a point-in-time view of a histogram (possibly aggregated
// across label series).
type HistSnapshot struct {
	Bounds []float64 // upper bounds; Counts has one extra +Inf entry
	Counts []int64
	Sum    float64
	Count  int64
}

// Sub returns s minus an earlier snapshot of the same histogram family —
// the per-run delta a benchmark reports.
func (s HistSnapshot) Sub(earlier HistSnapshot) HistSnapshot {
	out := HistSnapshot{Bounds: s.Bounds, Counts: append([]int64(nil), s.Counts...)}
	for i := range earlier.Counts {
		if i < len(out.Counts) {
			out.Counts[i] -= earlier.Counts[i]
		}
	}
	out.Sum = s.Sum - earlier.Sum
	out.Count = s.Count - earlier.Count
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts,
// interpolating linearly within the containing bucket. Samples beyond the
// last bound are reported as the last bound (the histogram cannot resolve
// them further).
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum < rank {
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		// Position of the rank within this bucket's samples.
		inBucket := float64(c)
		if inBucket == 0 {
			return hi
		}
		pos := float64(rank-(cum-c)) / inBucket
		return lo + (hi-lo)*pos
	}
	return s.Bounds[len(s.Bounds)-1]
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (family, label set) line.
type series struct {
	labels string // rendered {k="v",...} suffix, "" for unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
}

// Registry holds named metric families. All methods are safe for
// concurrent use; registration of an existing (name, labels) pair returns
// the existing instrument, so call sites can re-register freely (nodes are
// rebuilt every cluster run).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	help     map[string]string // HELP text may arrive before the family exists
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), help: make(map[string]string)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every subsystem reports into.
func Default() *Registry { return defaultRegistry }

func (r *Registry) family(name string, kind metricKind) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, help: r.help[name], series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// renderLabels produces the canonical, sorted {k="v",...} suffix.
func renderLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l[k]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Help sets the family's HELP text (rendered once per family). It may be
// called before the family's first instrument is registered and does not
// pin the family to a kind.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
	if f := r.families[name]; f != nil {
		f.help = text
	}
}

// Counter returns the counter registered under name with the given labels,
// creating it if needed.
func (r *Registry) Counter(name string, l Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, kindCounter)
	key := renderLabels(l)
	s := f.series[key]
	if s == nil {
		s = &series{labels: key, c: &Counter{}}
		f.series[key] = s
	}
	return s.c
}

// Gauge returns the settable gauge registered under name with the given
// labels, creating it if needed.
func (r *Registry) Gauge(name string, l Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, kindGauge)
	key := renderLabels(l)
	s := f.series[key]
	if s == nil {
		s = &series{labels: key, g: &Gauge{}}
		f.series[key] = s
	}
	return s.g
}

// GaugeFunc registers (or replaces) a function-backed gauge: fn is called
// at scrape time. Replacement matters because nodes are rebuilt across
// runs in one process and the newest instance must win.
func (r *Registry) GaugeFunc(name string, l Labels, fn func() float64) {
	r.Gauge(name, l).setFunc(fn)
}

// Histogram returns the histogram registered under name with the given
// labels, creating it with the given bucket bounds (DefBuckets when nil)
// if needed. Bounds of an existing histogram are not changed.
func (r *Registry) Histogram(name string, l Labels, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, kindHistogram)
	key := renderLabels(l)
	s := f.series[key]
	if s == nil {
		s = &series{labels: key, h: newHistogram(bounds)}
		f.series[key] = s
	}
	return s.h
}

// HistogramSnapshot aggregates every label series of the named histogram
// family into one snapshot — the cross-node view a benchmark reports
// quantiles from. Returns a zero snapshot if the family does not exist.
func (r *Registry) HistogramSnapshot(name string) HistSnapshot {
	r.mu.Lock()
	f := r.families[name]
	var hs []*Histogram
	if f != nil && f.kind == kindHistogram {
		for _, s := range f.series {
			hs = append(hs, s.h)
		}
	}
	r.mu.Unlock()
	var out HistSnapshot
	for _, h := range hs {
		s := h.Snapshot()
		if out.Bounds == nil {
			out = s
			continue
		}
		for i := range s.Counts {
			out.Counts[i] += s.Counts[i]
		}
		out.Sum += s.Sum
		out.Count += s.Count
	}
	return out
}

// CounterValue returns the summed value of every series of the named
// counter family (0 if absent).
func (r *Registry) CounterValue(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil || f.kind != kindCounter {
		return 0
	}
	var total int64
	for _, s := range f.series {
		total += s.c.Value()
	}
	return total
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in Prometheus text exposition
// format, families and series in sorted order so output is deterministic.
func (r *Registry) WritePrometheus(w *strings.Builder) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ser := make([]*series, len(keys))
		for i, k := range keys {
			ser[i] = f.series[k]
		}
		help := f.help
		r.mu.Unlock()

		if len(ser) == 0 {
			continue
		}
		if help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ser {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case kindGauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.g.Value()))
			case kindHistogram:
				snap := s.h.Snapshot()
				var cum int64
				for i, b := range snap.Bounds {
					cum += snap.Counts[i]
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bucketLabels(s.labels, formatFloat(b)), cum)
				}
				cum += snap.Counts[len(snap.Bounds)]
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bucketLabels(s.labels, "+Inf"), cum)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatFloat(snap.Sum))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, snap.Count)
			}
		}
	}
}

// bucketLabels merges a series' label suffix with the le bucket label.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// Render returns the full Prometheus text exposition.
func (r *Registry) Render() string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}
