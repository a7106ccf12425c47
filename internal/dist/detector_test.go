package dist_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"secureblox/internal/datalog"
	"secureblox/internal/dist"
	"secureblox/internal/engine"
	"secureblox/internal/transport"
)

// TestWaitQuiescentUnresponsiveNode: a node that dies mid-run (here: its
// endpoint is closed and it answers no probes) must surface as a typed
// *UnresponsiveError naming the dead principal, not as a hang.
func TestWaitQuiescentUnresponsiveNode(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	peers := map[string]string{"a": addrA, "b": addrB}
	a := newTestNode(t, net, "a", addrA, peers, deriveRule)
	a.Start()
	defer a.Stop()
	// Node b exists as an address only: it joined the directory and died.
	dead := net.Endpoint(addrB)
	dead.Close()

	det := newDetector(t, net, addrA, addrB)
	det.UnresponsiveAfter = 300 * time.Millisecond
	det.Names = map[string]string{addrA: "alice", addrB: "bob"}

	errCh := make(chan error, 1)
	go func() { errCh <- det.WaitQuiescent(context.Background()) }()
	select {
	case err := <-errCh:
		var ue *dist.UnresponsiveError
		if !errors.As(err, &ue) {
			t.Fatalf("got %v, want *UnresponsiveError", err)
		}
		if len(ue.Principals) != 1 || ue.Principals[0] != "bob" {
			t.Fatalf("unresponsive principals = %v, want [bob]", ue.Principals)
		}
		if len(ue.Addrs) != 1 || ue.Addrs[0] != addrB {
			t.Fatalf("unresponsive addrs = %v, want [%s]", ue.Addrs, addrB)
		}
		if ue.After < det.UnresponsiveAfter {
			t.Fatalf("gave up after %v, before the %v budget", ue.After, det.UnresponsiveAfter)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitQuiescent hung on a dead node")
	}
}

// TestWaitQuiescentContextCancel: cancelling the context unblocks the wait
// with the context's error even though quiescence is unreachable.
func TestWaitQuiescentContextCancel(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	// No node ever answers, and the unresponsiveness budget is unbounded
	// (the zero default): only the context can end this wait.
	net.Endpoint(addrA).Close()
	det := newDetector(t, net, addrA)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- det.WaitQuiescent(ctx) }()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("got %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitQuiescent ignored context cancellation")
	}
}

// TestWaitQuiescentClosedEndpoint: closing the detector keeps returning the
// sentinel ErrDetectorClosed so callers can tell shutdown from crash.
func TestWaitQuiescentClosedEndpoint(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	det := newDetector(t, net, addrA)
	det.Close()
	if err := det.WaitQuiescent(context.Background()); !errors.Is(err, dist.ErrDetectorClosed) {
		t.Fatalf("got %v, want ErrDetectorClosed", err)
	}
}

// TestDrainWaitsForQueuedWork: Drain returns once queued work has been
// committed and what it ships sent.
func TestDrainWaitsForQueuedWork(t *testing.T) {
	net := transport.NewMemNetwork()
	defer net.Close()
	peers := map[string]string{"a": addrA, "b": addrB}
	a := newTestNode(t, net, "a", addrA, peers, deriveRule)
	b := newTestNode(t, net, "b", addrB, peers, "")
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("drained payload"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(addrB)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Everything queued before Drain returned must have been committed.
	det := newDetector(t, net, addrA, addrB)
	waitFixpoint(t, det)
	if got := len(b.WS.Tuples("got")); got != 1 {
		t.Fatalf("after drain, receiver has %d payloads, want 1", got)
	}
}
