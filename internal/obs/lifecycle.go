package obs

import (
	"fmt"
	"net/http"
	"sync/atomic"
)

// State is one station of a node process's lifecycle. The cluster runtime
// advances it as the join handshake, the ready barrier, the fixpoint run,
// evictions and the departure barrier happen; /metrics, /readyz and /healthz
// report it. Its number is the value of sbx_lifecycle_state.
type State int32

const (
	// StateInit: the process is up and has joined nothing.
	StateInit State = iota
	// StateJoining: the bootstrap handshake, until the directory is held.
	StateJoining
	// StateReady: the directory is held and the ready barrier passed.
	StateReady
	// StateRunning: the transaction loop works toward the fixpoint.
	StateRunning
	// StateEvicting: a running node prunes an unresponsive peer.
	StateEvicting
	// StateDraining: the departure barrier and the graceful leave.
	StateDraining
	// StateDone is a clean exit.
	StateDone
	// StateFailed is an error exit (bootstrap failure, detector abort,
	// runtime error).
	StateFailed
)

var stateNames = [...]string{"init", "joining", "ready", "running", "evicting", "draining", "done", "failed"}

// String renders the state the way the endpoints report it.
func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// ready reports whether /readyz answers 200: the node holds the directory,
// passed the ready barrier and has not started draining. An eviction keeps
// a survivor ready; it still serves the computation.
func (s State) ready() bool {
	return s == StateReady || s == StateRunning || s == StateEvicting
}

// legal reports whether a lifecycle may move from one state to another:
// the handshake, the barriers and the run in order, an eviction as an
// excursion from running, and failed from any live state.
func legal(from, to State) bool {
	switch to {
	case StateJoining:
		return from == StateInit
	case StateReady:
		return from == StateJoining
	case StateRunning:
		return from == StateReady || from == StateEvicting
	case StateEvicting:
		return from == StateRunning
	case StateDraining:
		return from.ready()
	case StateDone:
		return from == StateDraining
	case StateFailed:
		return from != StateDone && from != StateFailed
	}
	return false
}

// Lifecycle is one run's lifecycle state. Advance enforces the legal
// edges, so a wiring bug (a barrier skipped, an eviction after draining)
// surfaces as an error instead of a wrong readiness signal. A nil
// Lifecycle stays in StateInit and ignores every step.
type Lifecycle struct {
	state atomic.Int32
}

// current is the lifecycle /readyz and /healthz serve.
var current atomic.Pointer[Lifecycle]

func init() {
	Default().Help("sbx_lifecycle_state", "Node lifecycle state: 0 init, 1 joining, 2 ready, 3 running, 4 evicting, 5 draining, 6 done, 7 failed.")
}

// StartLifecycle begins a run as principal: a new lifecycle in StateInit,
// rendered as sbx_lifecycle_state{principal} and served by /readyz and
// /healthz from now on. A series of an earlier run under another principal
// keeps that run's last state.
func StartLifecycle(principal string) *Lifecycle {
	l := new(Lifecycle)
	Default().GaugeFunc("sbx_lifecycle_state", Labels{"principal": principal}, func() float64 { return float64(l.State()) })
	current.Store(l)
	return l
}

// State returns the current state.
func (l *Lifecycle) State() State {
	if l == nil {
		return StateInit
	}
	return State(l.state.Load())
}

// Advance moves to state to. Advancing to the current state is a no-op; an
// illegal edge returns an error and leaves the state unchanged.
func (l *Lifecycle) Advance(to State) error {
	if l == nil {
		return nil
	}
	for {
		from := l.State()
		if from == to {
			return nil
		}
		if !legal(from, to) {
			return fmt.Errorf("obs: illegal lifecycle transition %s -> %s", from, to)
		}
		if l.state.CompareAndSwap(int32(from), int32(to)) {
			return nil
		}
	}
}

// Fail moves to StateFailed from any live state; a terminal state keeps
// its verdict.
func (l *Lifecycle) Fail() { _ = l.Advance(StateFailed) }

// lifecycleHandler answers 200 with the current run's state when ok holds
// for it, 503 otherwise: /readyz (ready, running, evicting) and /healthz
// (anything but failed — a supervisor restarts on failed, not on slow).
func lifecycleHandler(ok func(State) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		s := current.Load().State()
		if !ok(s) {
			http.Error(w, s.String(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "ok %s\n", s)
	})
}
