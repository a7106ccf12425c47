package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the exact text exposition: family ordering,
// HELP/TYPE lines, sorted label rendering, histogram bucket accumulation
// with the +Inf bucket, and integer-vs-float formatting. A scrape-side
// parser (Prometheus itself) is strict about this format, so the renderer
// is tested against a full golden document rather than substrings.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Help("app_requests_total", "Requests served.")
	r.Counter("app_requests_total", Labels{"node": "a"}).Add(3)
	r.Counter("app_requests_total", Labels{"node": "b", "zone": "z1"}).Add(5)
	r.Help("app_queue_depth", "Queued work.")
	r.GaugeFunc("app_queue_depth", nil, func() float64 { return 2.5 })
	r.GaugeFunc("app_live", nil, func() float64 { return 7 })
	h := r.Histogram("app_latency_seconds", Labels{"node": "a"}, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(3)

	want := strings.Join([]string{
		`# TYPE app_latency_seconds histogram`,
		`app_latency_seconds_bucket{node="a",le="0.1"} 1`,
		`app_latency_seconds_bucket{node="a",le="1"} 3`,
		`app_latency_seconds_bucket{node="a",le="+Inf"} 4`,
		`app_latency_seconds_sum{node="a"} 4.05`,
		`app_latency_seconds_count{node="a"} 4`,
		`# TYPE app_live gauge`,
		`app_live 7`,
		`# HELP app_queue_depth Queued work.`,
		`# TYPE app_queue_depth gauge`,
		`app_queue_depth 2.5`,
		`# HELP app_requests_total Requests served.`,
		`# TYPE app_requests_total counter`,
		`app_requests_total{node="a"} 3`,
		`app_requests_total{node="b",zone="z1"} 5`,
		``,
	}, "\n")
	if got := r.Render(); got != want {
		t.Errorf("rendered exposition differs:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestHelpBeforeRegistrationKeepsKind(t *testing.T) {
	r := NewRegistry()
	r.Help("later_histogram", "Registered after its help text.")
	h := r.Histogram("later_histogram", nil, []float64{1})
	h.Observe(0.5)
	out := r.Render()
	if !strings.Contains(out, "# HELP later_histogram Registered after its help text.") {
		t.Errorf("help text lost:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE later_histogram histogram") {
		t.Errorf("family pinned to wrong kind:\n%s", out)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("twice", nil)
	defer func() {
		if recover() == nil {
			t.Error("registering one name as two kinds must panic")
		}
	}()
	r.GaugeFunc("twice", nil, func() float64 { return 0 })
}

func TestCounterValueSumsSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", Labels{"p": "a"}).Add(2)
	r.Counter("c", Labels{"p": "b"}).Add(40)
	if got := r.CounterValue("c"); got != 42 {
		t.Errorf("CounterValue = %d, want 42", got)
	}
	if got := r.CounterValue("absent"); got != 0 {
		t.Errorf("CounterValue(absent) = %d, want 0", got)
	}
}

// TestChildCounterRollsUp: a child reads only its own adds, its parent the
// sum over every child and its direct adds — also while all of them are being
// added to concurrently (run under -race in CI), and after a child is dropped.
func TestChildCounterRollsUp(t *testing.T) {
	r := NewRegistry()
	parent := r.Counter("c", Labels{"p": "a"})
	const adders, iters = 4, 1000
	kids := []*Counter{parent.Child(), parent.Child(), parent.Child()}
	var wg sync.WaitGroup
	for i, k := range kids {
		for a := 0; a < adders; a++ {
			wg.Add(1)
			go func(k *Counter, n int64) {
				defer wg.Done()
				for j := 0; j < iters; j++ {
					k.Add(n)
				}
			}(k, int64(i+1))
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < iters; j++ {
			parent.Inc()
			_ = r.CounterValue("c")
		}
	}()
	wg.Wait()
	var sum int64 = iters
	for i, k := range kids {
		want := int64(i+1) * adders * iters
		if got := k.Value(); got != want {
			t.Errorf("child %d reads %d, want its own %d", i, got, want)
		}
		sum += want
	}
	if got := parent.Value(); got != sum {
		t.Errorf("parent reads %d, want the sum %d", got, sum)
	}
	// A fresh child starts at zero; the family keeps what the others added.
	late := r.Counter("c", Labels{"p": "a"}).Child()
	late.Inc()
	if late.Value() != 1 || r.CounterValue("c") != sum+1 {
		t.Errorf("late child %d, family %d; want 1 and %d", late.Value(), r.CounterValue("c"), sum+1)
	}
	if strings.Count(r.Render(), "\nc{") != 1 {
		t.Errorf("children must not render as series:\n%s", r.Render())
	}
}

func TestHistogramSnapshotAggregatesAndSubs(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1, 2, 4}
	r.Histogram("h", Labels{"p": "a"}, bounds).Observe(0.5)
	r.Histogram("h", Labels{"p": "b"}, bounds).Observe(3)
	before := r.HistogramSnapshot("h")
	if before.Count != 2 {
		t.Fatalf("aggregated count = %d, want 2", before.Count)
	}
	r.Histogram("h", Labels{"p": "a"}, bounds).Observe(1.5)
	delta := r.HistogramSnapshot("h").Sub(before)
	if delta.Count != 1 || math.Abs(delta.Sum-1.5) > 1e-9 {
		t.Errorf("delta = count %d sum %g, want 1 and 1.5", delta.Count, delta.Sum)
	}
	if q := delta.Quantile(0.5); q < 1 || q > 2 {
		t.Errorf("delta p50 = %g, want within the (1,2] bucket", q)
	}
}

func TestHistSnapshotQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	// 10 samples in (1,2]: p50 interpolates to the bucket midpoint.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); math.Abs(q-1.5) > 1e-9 {
		t.Errorf("p50 = %g, want 1.5", q)
	}
	// A sample beyond the last bound saturates at the last bound.
	h.Observe(100)
	if q := h.Snapshot().Quantile(1.0); q != 4 {
		t.Errorf("p100 with +Inf sample = %g, want 4 (last bound)", q)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty snapshot quantile = %g, want 0", q)
	}
}

// TestRegistryConcurrentScrape hammers every instrument kind from many
// goroutines while a scraper renders the registry — the exact overlap the
// live /metrics endpoint sees mid-benchmark. Run under -race in CI.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 500
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Render()
				_ = r.CounterValue("hammer_total")
				_ = r.HistogramSnapshot("hammer_seconds")
				_ = Spans()
			}
		}
	}()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			l := Labels{"w": fmt.Sprintf("%d", w%3)}
			for i := 0; i < iters; i++ {
				r.Counter("hammer_total", l).Inc()
				v := float64(i) + 0.5
				r.GaugeFunc("hammer_depth", l, func() float64 { return v })
				r.Histogram("hammer_seconds", l, nil).Observe(float64(i) / iters)
				RecordSpan(Span{Trace: uint64(w + 1), Node: "n", Stage: StageFixpoint})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraperDone
	if got := r.CounterValue("hammer_total"); got != workers*iters {
		t.Errorf("hammer_total = %d, want %d", got, workers*iters)
	}
	snap := r.HistogramSnapshot("hammer_seconds")
	if snap.Count != workers*iters {
		t.Errorf("histogram count = %d, want %d", snap.Count, workers*iters)
	}
}
