package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The lifecycle tests run as one principal: a process renders one
// sbx_lifecycle_state series per principal it ran, and ScrapeNode reads
// the identity only off a single series.
const testPrincipal = "p1"

// TestHealthTransitionTable walks the full lifecycle and probes every
// illegal edge the wiring could plausibly attempt.
func TestHealthTransitionTable(t *testing.T) {
	legalEdges := [][2]State{
		{StateInit, StateJoining},
		{StateJoining, StateReady},
		{StateReady, StateRunning},
		{StateRunning, StateEvicting},
		{StateEvicting, StateRunning},
		{StateRunning, StateDraining},
		{StateDraining, StateDone},
	}
	var l Lifecycle
	for _, e := range legalEdges {
		if got := l.State(); got != e[0] {
			t.Fatalf("before %s->%s: state %s", e[0], e[1], got)
		}
		if err := l.Advance(e[1]); err != nil {
			t.Fatalf("legal edge %s->%s rejected: %v", e[0], e[1], err)
		}
	}
	if got := l.State(); got != StateDone {
		t.Fatalf("walk ended in %s, want done", got)
	}

	illegal := [][2]State{
		{StateInit, StateReady},      // barrier skipped
		{StateInit, StateRunning},    // handshake skipped
		{StateInit, StateDone},       // nothing ran
		{StateJoining, StateRunning}, // ready barrier skipped
		{StateReady, StateEvicting},  // eviction before the run started
		{StateDraining, StateRunning},
		{StateDone, StateRunning},
		{StateFailed, StateRunning},
	}
	for _, e := range illegal {
		var l Lifecycle
		// Drive to the from-state along legal edges.
		path := map[State][]State{
			StateInit:     nil,
			StateJoining:  {StateJoining},
			StateReady:    {StateJoining, StateReady},
			StateRunning:  {StateJoining, StateReady, StateRunning},
			StateDraining: {StateJoining, StateReady, StateRunning, StateDraining},
			StateDone:     {StateJoining, StateReady, StateRunning, StateDraining, StateDone},
		}[e[0]]
		if e[0] == StateFailed {
			l.Fail()
		}
		for _, s := range path {
			if err := l.Advance(s); err != nil {
				t.Fatalf("setup for %s->%s: %v", e[0], e[1], err)
			}
		}
		if err := l.Advance(e[1]); err == nil {
			t.Errorf("illegal edge %s->%s accepted", e[0], e[1])
		}
		if got := l.State(); got != e[0] {
			t.Errorf("failed advance moved state to %s (from %s)", got, e[0])
		}
	}

	// Same-state advance is a quiet no-op.
	l = Lifecycle{}
	if err := l.Advance(StateInit); err != nil || l.State() != StateInit {
		t.Fatalf("same-state advance: err=%v state=%s", err, l.State())
	}
}

// TestHealthFailAndReset: Fail reaches Failed from any live state, terminal
// states hold their verdict, the next run's lifecycle starts over.
func TestHealthFailAndReset(t *testing.T) {
	l := StartLifecycle(testPrincipal)
	must := func(s State) {
		t.Helper()
		if err := l.Advance(s); err != nil {
			t.Fatal(err)
		}
	}
	must(StateJoining)
	l.Fail()
	if l.State() != StateFailed {
		t.Fatalf("state %s after Fail", l.State())
	}
	// A second verdict does not overwrite the first.
	l.Fail()
	if l.State().ready() {
		t.Fatal("failed node reports ready")
	}

	l = StartLifecycle(testPrincipal)
	if l.State() != StateInit || current.Load() != l {
		t.Fatalf("a new run starts in %s, served: %v", l.State(), current.Load() == l)
	}
	must(StateJoining)
	must(StateReady)
	must(StateRunning)
	must(StateDraining)
	must(StateDone)
	l.Fail()
	if l.State() != StateDone {
		t.Fatalf("Fail overrode Done: %s", l.State())
	}

	// A nil lifecycle (a runtime nobody observes) takes every step quietly.
	var none *Lifecycle
	none.Fail()
	if err := none.Advance(StateReady); err != nil || none.State() != StateInit {
		t.Fatalf("nil lifecycle: err=%v state=%s", err, none.State())
	}
}

// get serves one request through a Mount mux.
func get(t *testing.T, path string) (int, string) {
	t.Helper()
	mux := http.NewServeMux()
	Mount(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// TestHealthEndpoints: /readyz flips 503 -> 200 -> 503 across the
// lifecycle, and /healthz answers 503 only on Failed.
func TestHealthEndpoints(t *testing.T) {
	l := StartLifecycle(testPrincipal)
	readyCode := func() int {
		code, _ := get(t, "/readyz")
		return code
	}
	if got := readyCode(); got != 503 {
		t.Fatalf("init /readyz = %d, want 503", got)
	}
	for _, s := range []State{StateJoining, StateReady, StateRunning} {
		if err := l.Advance(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := readyCode(); got != 200 {
		t.Fatalf("running /readyz = %d, want 200", got)
	}
	if err := l.Advance(StateEvicting); err != nil {
		t.Fatal(err)
	}
	if got := readyCode(); got != 200 {
		t.Fatalf("evicting /readyz = %d, want 200 (survivor still serves)", got)
	}
	for _, s := range []State{StateRunning, StateDraining} {
		if err := l.Advance(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := readyCode(); got != 503 {
		t.Fatalf("draining /readyz = %d, want 503", got)
	}

	if code, body := get(t, "/healthz"); code != 200 || body != "ok draining\n" {
		t.Fatalf("/healthz = %d %q, want 200 naming draining", code, body)
	}
	if _, body := get(t, "/metrics"); !strings.Contains(body, `sbx_lifecycle_state{principal="p1"} 5`) {
		t.Fatalf("/metrics does not report p1 draining:\n%s", body)
	}

	l.Fail() // draining is still live: a failure now is the verdict
	if code, body := get(t, "/healthz"); code != 503 || !strings.Contains(body, "failed") {
		t.Fatalf("failed /healthz = %d body %q", code, body)
	}
}

// TestLifecycleRendersOnMetrics: after joining → ready → running, /metrics
// renders the run's principal as running and /readyz answers 200.
func TestLifecycleRendersOnMetrics(t *testing.T) {
	l := StartLifecycle(testPrincipal)
	for _, s := range []State{StateJoining, StateReady, StateRunning} {
		if err := l.Advance(s); err != nil {
			t.Fatal(err)
		}
	}
	_, body := get(t, "/metrics")
	for _, want := range []string{
		"# TYPE sbx_lifecycle_state gauge\n",
		`sbx_lifecycle_state{principal="p1"} 3` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if code, body := get(t, "/readyz"); code != 200 || body != "ok running\n" {
		t.Fatalf("/readyz = %d %q, want 200 running", code, body)
	}
}
