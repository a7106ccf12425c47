package cluster

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"secureblox/internal/dist"
	"secureblox/internal/transport"
	"secureblox/internal/wire"
)

func TestConfigOnFailureValidation(t *testing.T) {
	for _, ok := range []string{"", "abort", "evict"} {
		c := testConfig(t, "NoAuth")
		c.OnFailure = ok
		if err := c.Validate(); err != nil {
			t.Errorf("on_failure %q rejected: %v", ok, err)
		}
		if want := ok == "evict"; c.EvictOnFailure() != want {
			t.Errorf("on_failure %q: EvictOnFailure() = %v, want %v", ok, c.EvictOnFailure(), want)
		}
	}
	c := testConfig(t, "NoAuth")
	c.OnFailure = "evictt"
	if err := c.Validate(); err == nil {
		t.Fatal("typo on_failure accepted")
	}
}

// joinAll bootstraps every node of cfg over net, in parallel, and returns
// the runtimes in deployment order.
func joinAll(t *testing.T, cfg *Config, net transport.Network) []*Runtime {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rts := make([]*Runtime, len(cfg.Nodes))
	errs := make([]error, len(cfg.Nodes))
	var wg sync.WaitGroup
	for i := range cfg.Nodes {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt, err := NewRuntime(cfg, cfg.Nodes[i].Principal, net)
			if err == nil {
				_, err = rt.Join(ctx)
			}
			rts[i], errs[i] = rt, err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d join: %v", i, err)
		}
	}
	return rts
}

// TestEvictDeadGossipsDelta: a survivor evicting a dead member applies the
// delta locally (deduplicated, detector pruned) and gossips exactly one
// CtrlEvict record to each remaining live member; a received delta applies
// without re-gossip, and a delta naming the receiver itself is ignored.
func TestEvictDeadGossipsDelta(t *testing.T) {
	cfg := bootConfig(t)
	net := transport.NewMemNetwork()
	defer net.Close()
	rts := joinAll(t, cfg, net)
	mem := rts[0].mem
	deadAddr := mem.Members[2].Addr

	det := dist.NewDetector(net.Endpoint("127.0.0.1:0"), mem.Addrs())
	det.Names = mem.Names()
	defer det.Close()
	rts[0].BindDetector(det)

	ue := &dist.UnresponsiveError{Principals: []string{"p2"}, Addrs: []string{deadAddr}}
	if got := rts[0].EvictDead(ue); !reflect.DeepEqual(got, []string{"p2"}) {
		t.Fatalf("EvictDead = %v, want [p2]", got)
	}
	if !rts[0].Evicted("p2") || rts[0].Evicted("p1") {
		t.Fatalf("evicted set wrong: p2=%v p1=%v", rts[0].Evicted("p2"), rts[0].Evicted("p1"))
	}
	// Re-evicting is a deduplicated no-op.
	if got := rts[0].EvictDead(ue); got != nil {
		t.Fatalf("second EvictDead = %v, want nil", got)
	}

	// p1 received the gossip on its endpoint; the dead p2 must not have
	// (the delta goes to live members only — nothing else was sent to p2).
	select {
	case in := <-rts[1].Endpoint().Receive():
		rec, ok := rts[1].decodeBootstrap(in.Data)
		if !ok || rec.Type != wire.CtrlEvict {
			t.Fatalf("p1 received %+v, want a CtrlEvict record", rec)
		}
		if len(rec.Members) != 1 || rec.Members[0].Principal != "p2" || rec.Members[0].Addr != deadAddr {
			t.Fatalf("delta members = %+v, want p2@%s", rec.Members, deadAddr)
		}
		// Applying the received delta mirrors what BindNode's OnControl does.
		if got := rts[1].applyEviction(rec.Members, false); !reflect.DeepEqual(got, []string{"p2"}) {
			t.Fatalf("applyEviction = %v, want [p2]", got)
		}
		if !rts[1].Evicted("p2") {
			t.Fatal("p1 did not record the gossiped eviction")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("eviction delta never reached p1")
	}

	// A delta naming the receiver itself must be ignored: an asymmetric
	// partition must not talk a live process into playing dead.
	self := []wire.MemberInfo{{Principal: "p1", Addr: mem.Members[1].Addr}}
	if got := rts[1].applyEviction(self, false); got != nil {
		t.Fatalf("self-eviction applied: %v", got)
	}
	if rts[1].Evicted("p1") {
		t.Fatal("p1 evicted itself")
	}
}
