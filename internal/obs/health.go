package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// HealthState is one station of a node process's lifecycle. The cluster
// runtime advances it as the join handshake, the ready barrier, the
// fixpoint run, evictions and the departure barrier happen; /healthz and
// /readyz report it to the outside.
type HealthState int32

const (
	// StateInit is the state before any lifecycle step ran (process up,
	// nothing joined).
	StateInit HealthState = iota
	// StateJoining covers the bootstrap handshake: announcing to the seed
	// (or collecting announcements) until the directory is held.
	StateJoining
	// StateReady means the directory is held and the ready barrier passed:
	// every member is assembled and the first transaction may fire.
	StateReady
	// StateRunning means the transaction loop is live and working toward
	// the distributed fixpoint.
	StateRunning
	// StateEvicting is a Running excursion: an unresponsive peer is being
	// pruned from the membership before the fixpoint wait resumes.
	StateEvicting
	// StateDraining covers the departure barrier and the graceful leave:
	// the fixpoint is proven, queued work is flushing.
	StateDraining
	// StateDone is a terminal clean exit.
	StateDone
	// StateFailed is a terminal error exit (bootstrap failure, detector
	// abort, runtime error).
	StateFailed
)

// String renders the state the way the endpoints report it.
func (s HealthState) String() string {
	switch s {
	case StateInit:
		return "init"
	case StateJoining:
		return "joining"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateEvicting:
		return "evicting"
	case StateDraining:
		return "draining"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// healthEdges is the legal transition relation. Failed is reachable from
// everywhere via Fail; it is not listed per state.
var healthEdges = map[HealthState][]HealthState{
	StateInit:     {StateJoining},
	StateJoining:  {StateReady},
	StateReady:    {StateRunning, StateDraining},
	StateRunning:  {StateEvicting, StateDraining},
	StateEvicting: {StateRunning, StateDraining},
	StateDraining: {StateDone},
	StateDone:     {},
	StateFailed:   {},
}

// HealthTransition is one recorded state change.
type HealthTransition struct {
	From HealthState `json:"-"`
	To   HealthState `json:"-"`
	At   time.Time   `json:"at"`
	// FromS/ToS are the serialized forms.
	FromS string `json:"from"`
	ToS   string `json:"to"`
}

// Health is the lifecycle state machine behind /healthz and /readyz.
// Advance enforces the legal transition relation so a wiring bug (a
// barrier skipped, an eviction after draining) surfaces as an error
// instead of a silently wrong readiness signal.
type Health struct {
	mu        sync.Mutex
	state     HealthState
	since     time.Time
	started   time.Time
	cluster   string
	principal string
	failure   string
	history   []HealthTransition
}

// NewHealth returns a Health in StateInit.
func NewHealth() *Health {
	now := time.Now()
	return &Health{state: StateInit, since: now, started: now}
}

var (
	defaultHealthOnce sync.Once
	defaultHealth     *Health
)

// DefaultHealth returns the process-wide health instance Mount serves.
// Each OS process runs one principal (the sbxnode deployment shape), so a
// process-global instance is the right default; in-process multi-node
// tests build their own Health per runtime.
func DefaultHealth() *Health {
	defaultHealthOnce.Do(func() { defaultHealth = NewHealth() })
	return defaultHealth
}

// SetIdentity records the cluster and principal reported by /healthz.
func (h *Health) SetIdentity(cluster, principal string) {
	h.mu.Lock()
	h.cluster, h.principal = cluster, principal
	h.mu.Unlock()
}

// State returns the current state.
func (h *Health) State() HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Ready reports whether the node should answer /readyz with 200: it holds
// the directory, passed the ready barrier, and has not started draining.
// An eviction excursion keeps the survivor ready — it is still serving the
// computation.
func (h *Health) Ready() bool {
	switch h.State() {
	case StateReady, StateRunning, StateEvicting:
		return true
	}
	return false
}

// Advance moves to state to. Advancing to the current state is a no-op;
// an illegal edge returns an error and leaves the state unchanged.
func (h *Health) Advance(to HealthState) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if to == h.state {
		return nil
	}
	legal := false
	for _, next := range healthEdges[h.state] {
		if next == to {
			legal = true
			break
		}
	}
	if !legal {
		return fmt.Errorf("obs: illegal health transition %s -> %s", h.state, to)
	}
	h.recordLocked(to)
	return nil
}

// Fail moves to StateFailed from any non-terminal state, recording the
// cause. Failing an already terminal Health is a no-op (the first verdict
// wins).
func (h *Health) Fail(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == StateDone || h.state == StateFailed {
		return
	}
	if err != nil {
		h.failure = err.Error()
	}
	h.recordLocked(StateFailed)
}

// Reset returns the machine to StateInit with an empty history — the
// start of a new run in a process that reuses the default instance
// (tests, sbxnode -allinone).
func (h *Health) Reset() {
	h.mu.Lock()
	now := time.Now()
	h.state, h.since, h.started = StateInit, now, now
	h.failure = ""
	h.history = nil
	h.mu.Unlock()
}

func (h *Health) recordLocked(to HealthState) {
	now := time.Now()
	h.history = append(h.history, HealthTransition{
		From: h.state, To: to, At: now,
		FromS: h.state.String(), ToS: to.String(),
	})
	h.state = to
	h.since = now
}

// History returns the recorded transitions, oldest first.
func (h *Health) History() []HealthTransition {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]HealthTransition(nil), h.history...)
}

// healthzBody is the /healthz JSON document.
type healthzBody struct {
	State     string             `json:"state"`
	Cluster   string             `json:"cluster,omitempty"`
	Principal string             `json:"principal,omitempty"`
	SinceMs   int64              `json:"state_ms"`
	UptimeMs  int64              `json:"uptime_ms"`
	Failure   string             `json:"failure,omitempty"`
	History   []HealthTransition `json:"history,omitempty"`
}

// HealthzHandler serves liveness: 200 with the lifecycle document unless
// the run failed (503) — a supervisor restarts on failed, not on slow.
func HealthzHandler(h *Health) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		h.mu.Lock()
		now := time.Now()
		body := healthzBody{
			State:     h.state.String(),
			Cluster:   h.cluster,
			Principal: h.principal,
			SinceMs:   now.Sub(h.since).Milliseconds(),
			UptimeMs:  now.Sub(h.started).Milliseconds(),
			Failure:   h.failure,
			History:   append([]HealthTransition(nil), h.history...),
		}
		failed := h.state == StateFailed
		h.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if failed {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})
}

// ReadyzHandler serves readiness: 200 once the ready barrier passed and
// until draining starts, 503 otherwise. The smokes assert the flip.
func ReadyzHandler(h *Health) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		state := h.State()
		if h.Ready() {
			fmt.Fprintf(w, "ok %s\n", state)
			return
		}
		http.Error(w, "not ready: "+state.String(), http.StatusServiceUnavailable)
	})
}
