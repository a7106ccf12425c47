package obs

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHealthTransitionTable walks the full lifecycle and probes every
// illegal edge the wiring could plausibly attempt.
func TestHealthTransitionTable(t *testing.T) {
	legal := [][2]HealthState{
		{StateInit, StateJoining},
		{StateJoining, StateReady},
		{StateReady, StateRunning},
		{StateRunning, StateEvicting},
		{StateEvicting, StateRunning},
		{StateRunning, StateDraining},
		{StateDraining, StateDone},
	}
	h := NewHealth()
	for _, e := range legal {
		if got := h.State(); got != e[0] {
			t.Fatalf("before %s->%s: state %s", e[0], e[1], got)
		}
		if err := h.Advance(e[1]); err != nil {
			t.Fatalf("legal edge %s->%s rejected: %v", e[0], e[1], err)
		}
	}
	if got := len(h.History()); got != len(legal) {
		t.Fatalf("history has %d transitions, want %d", got, len(legal))
	}

	illegal := [][2]HealthState{
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
		h := NewHealth()
		// Drive to the from-state along legal edges.
		path := map[HealthState][]HealthState{
			StateInit:     nil,
			StateJoining:  {StateJoining},
			StateReady:    {StateJoining, StateReady},
			StateRunning:  {StateJoining, StateReady, StateRunning},
			StateDraining: {StateJoining, StateReady, StateRunning, StateDraining},
			StateDone:     {StateJoining, StateReady, StateRunning, StateDraining, StateDone},
		}[e[0]]
		if e[0] == StateFailed {
			h.Fail(errors.New("boom"))
		}
		for _, s := range path {
			if err := h.Advance(s); err != nil {
				t.Fatalf("setup for %s->%s: %v", e[0], e[1], err)
			}
		}
		if err := h.Advance(e[1]); err == nil {
			t.Errorf("illegal edge %s->%s accepted", e[0], e[1])
		}
		if got := h.State(); got != e[0] {
			t.Errorf("failed advance moved state to %s (from %s)", got, e[0])
		}
	}

	// Same-state advance is a quiet no-op, not a history entry.
	h = NewHealth()
	if err := h.Advance(StateInit); err != nil || len(h.History()) != 0 {
		t.Fatalf("same-state advance: err=%v history=%d", err, len(h.History()))
	}
}

// TestHealthFailAndReset: Fail reaches Failed from any live state, terminal
// states hold their verdict, Reset starts over.
func TestHealthFailAndReset(t *testing.T) {
	h := NewHealth()
	must := func(s HealthState) {
		t.Helper()
		if err := h.Advance(s); err != nil {
			t.Fatal(err)
		}
	}
	must(StateJoining)
	h.Fail(errors.New("seed unreachable"))
	if h.State() != StateFailed {
		t.Fatalf("state %s after Fail", h.State())
	}
	// A second verdict does not overwrite the first.
	h.Fail(errors.New("later noise"))
	if h.Ready() {
		t.Fatal("failed node reports ready")
	}

	h.Reset()
	if h.State() != StateInit || len(h.History()) != 0 {
		t.Fatalf("Reset left state=%s history=%d", h.State(), len(h.History()))
	}
	must(StateJoining)
	must(StateReady)
	must(StateRunning)
	must(StateDraining)
	must(StateDone)
	h.Fail(errors.New("too late"))
	if h.State() != StateDone {
		t.Fatalf("Fail overrode Done: %s", h.State())
	}
}

// TestHealthEndpoints: /readyz flips 503 -> 200 -> 503 across the
// lifecycle, and /healthz serves the document (503 only on Failed).
func TestHealthEndpoints(t *testing.T) {
	h := NewHealth()
	h.SetIdentity("fig5", "p2")

	readyCode := func() int {
		rec := httptest.NewRecorder()
		ReadyzHandler(h).ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		return rec.Code
	}
	if got := readyCode(); got != 503 {
		t.Fatalf("init /readyz = %d, want 503", got)
	}
	for _, s := range []HealthState{StateJoining, StateReady, StateRunning} {
		if err := h.Advance(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := readyCode(); got != 200 {
		t.Fatalf("running /readyz = %d, want 200", got)
	}
	if err := h.Advance(StateEvicting); err != nil {
		t.Fatal(err)
	}
	if got := readyCode(); got != 200 {
		t.Fatalf("evicting /readyz = %d, want 200 (survivor still serves)", got)
	}
	for _, s := range []HealthState{StateRunning, StateDraining} {
		if err := h.Advance(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := readyCode(); got != 503 {
		t.Fatalf("draining /readyz = %d, want 503", got)
	}

	rec := httptest.NewRecorder()
	HealthzHandler(h).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz = %d, want 200", rec.Code)
	}
	var doc struct {
		State     string `json:"state"`
		Cluster   string `json:"cluster"`
		Principal string `json:"principal"`
		History   []struct {
			From string `json:"from"`
			To   string `json:"to"`
		} `json:"history"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.State != "draining" || doc.Cluster != "fig5" || doc.Principal != "p2" {
		t.Fatalf("document wrong: %+v", doc)
	}
	if len(doc.History) == 0 || doc.History[0].From != "init" || doc.History[0].To != "joining" {
		t.Fatalf("history wrong: %+v", doc.History)
	}

	h.Fail(errors.New("detector abort"))
	rec = httptest.NewRecorder()
	HealthzHandler(h).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), "detector abort") {
		t.Fatalf("failed /healthz = %d body %q", rec.Code, rec.Body.String())
	}
}
