package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"secureblox/internal/seccrypto"
	"secureblox/internal/transport"
	"secureblox/internal/wire"
)

// bootConfig builds an RSA 3-node config with ephemeral joiner ports, the
// shape a real deployment uses (only the seed's port is pinned).
func bootConfig(t *testing.T) *Config {
	t.Helper()
	c := &Config{
		Cluster:  "boot",
		Policy:   "RSA",
		Workload: WorkloadConfig{Name: "pathvector", Seed: 1},
		Nodes: []NodeConfig{
			{Principal: "p0", Addr: "127.0.0.1:7301"},
			{Principal: "p1", Addr: "127.0.0.1:0"},
			{Principal: "p2", Addr: "127.0.0.1:0"},
		},
	}
	for i := range c.Nodes {
		k, err := seccrypto.GenerateRSAKey(seccrypto.NewDeterministicRand(int64(10 + i)))
		if err != nil {
			t.Fatal(err)
		}
		c.Nodes[i].KeyPEM = string(seccrypto.EncodePrivateKeyPEM(k))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBootstrapHandshake runs the full join + ready barrier across three
// runtimes over one simulated network — the exact code path three separate
// OS processes run over UDP, minus the sockets.
func TestBootstrapHandshake(t *testing.T) {
	cfg := bootConfig(t)
	net := transport.NewMemNetwork()
	defer net.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	type result struct {
		rt  *Runtime
		mem *Membership
		err error
	}
	results := make([]result, len(cfg.Nodes))
	var wg sync.WaitGroup
	// Deliberately start the joiners before the seed: announcements must be
	// re-sent until the seed's endpoint exists.
	order := []int{1, 2, 0}
	for _, i := range order {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt, err := NewRuntime(cfg, cfg.Nodes[i].Principal, net)
			if err != nil {
				results[i] = result{err: err}
				return
			}
			mem, err := rt.Join(ctx)
			if err != nil {
				results[i] = result{rt: rt, err: err}
				return
			}
			err = rt.Ready(ctx)
			results[i] = result{rt: rt, mem: mem, err: err}
		}()
		if i != 0 {
			time.Sleep(20 * time.Millisecond) // stagger: the joiners announce in turn
		}
	}
	wg.Wait()

	var first *Membership
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
		if first == nil {
			first = r.mem
		}
		if len(r.mem.Members) != 3 {
			t.Fatalf("node %d sees %d members", i, len(r.mem.Members))
		}
		for j, m := range r.mem.Members {
			if m.Principal != cfg.Nodes[j].Principal {
				t.Fatalf("node %d slot %d holds %q", i, j, m.Principal)
			}
			if m.Addr != first.Members[j].Addr {
				t.Fatalf("directories disagree on %s: %s vs %s", m.Principal, m.Addr, first.Members[j].Addr)
			}
			// The directory alone tells every member where every other one
			// really bound, the first joiner included: nothing else is heard
			// before the ready barrier.
			if bound := results[j].rt.Endpoint().Addr(); m.Addr != bound || strings.HasSuffix(m.Addr, ":0") {
				t.Fatalf("node %d's directory lists %s at %q, it is bound to %q", i, m.Principal, m.Addr, bound)
			}
			if len(m.PubKeyDER) == 0 {
				t.Fatalf("node %d: no public key for %s", i, m.Principal)
			}
			// Join must have installed every peer's public key locally.
			if results[i].rt.KeyStore().PublicKeyDER(m.Principal) == nil {
				t.Fatalf("node %d keystore missing %s's public key", i, m.Principal)
			}
		}
	}
}

// TestBootstrapTimeoutNamesMissing: a seed whose peers never come up fails
// with a typed BootstrapError naming exactly the absent principals.
func TestBootstrapTimeoutNamesMissing(t *testing.T) {
	cfg := bootConfig(t)
	net := transport.NewMemNetwork()
	defer net.Close()
	rt, err := NewRuntime(cfg, "p0", net)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err = rt.Join(ctx)
	var be *BootstrapError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BootstrapError", err)
	}
	if be.Phase != "join" {
		t.Fatalf("phase = %q", be.Phase)
	}
	if len(be.Missing) != 2 || be.Missing[0] != "p1" || be.Missing[1] != "p2" {
		t.Fatalf("missing = %v, want [p1 p2]", be.Missing)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause not surfaced: %v", err)
	}
}

// TestReadyBarrierKeepsOvertakingTraffic: the seed releases members one by
// one, so a released peer's first data message can reach a member before
// that member's own CtrlGo. The endpoint has acknowledged it by then; the
// barrier must hand it on (EarlyTraffic), not drop it — a dropped message
// leaves the cluster's send and receive counts unequal forever.
func TestReadyBarrierKeepsOvertakingTraffic(t *testing.T) {
	cfg := bootConfig(t)
	net := transport.NewMemNetwork()
	defer net.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	rts := make([]*Runtime, len(cfg.Nodes))
	var wg sync.WaitGroup
	for i := range cfg.Nodes {
		rt, err := NewRuntime(cfg, cfg.Nodes[i].Principal, net)
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.Join(ctx); err != nil {
				t.Errorf("%s: join: %v", rt.Principal(), err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// What a peer released before p1 would send it: queued on p1's endpoint
	// ahead of the CtrlGo the seed has not sent yet.
	data := wire.EncodeMessage(wire.Message{From: rts[2].Endpoint().Addr(), Payloads: [][]byte{[]byte("first export")}})
	if err := rts[2].Endpoint().Send(rts[1].Endpoint().Addr(), data); err != nil {
		t.Fatal(err)
	}
	for _, rt := range rts {
		rt := rt
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rt.Ready(ctx); err != nil {
				t.Errorf("%s: ready: %v", rt.Principal(), err)
			}
		}()
	}
	wg.Wait()

	early := rts[1].EarlyTraffic()
	if len(early) != 1 || !bytes.Equal(early[0].Data, data) || early[0].From != rts[2].Endpoint().Addr() {
		t.Fatalf("p1 kept %d early datagrams (%v), want the one data message from p2", len(early), early)
	}
	if n := len(rts[2].EarlyTraffic()); n != 0 {
		t.Errorf("p2 kept %d early datagrams, want none", n)
	}
}

// TestDepartureBarrierWaitsForEveryLeave: the seed releases the departure
// barrier only once it has collected a CtrlLeave from every live member.
// Repeats of one member's leave, and a leave from an address outside the
// directory, count for nobody; a member evicted meanwhile counts as departed.
// Released, every live member receives its CtrlBye.
func TestDepartureBarrierWaitsForEveryLeave(t *testing.T) {
	cfg := bootConfig(t)
	for _, evictLast := range []bool{false, true} {
		cfg.Cluster = fmt.Sprintf("depart-%v", evictLast)
		net := transport.NewMemNetwork()
		rts := joinAll(t, cfg, net)
		seed, mem := rts[0], rts[0].mem
		// The records a bound node would hand back to its runtime.
		seed.ctrlCh = make(chan wire.Control, 16)
		leave := func(addr string) {
			seed.ctrlCh <- wire.Control{Type: wire.CtrlLeave, Cluster: cfg.Cluster, Members: []wire.MemberInfo{{Addr: addr}}}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		done := make(chan error, 1)
		go func() { done <- seed.DepartureBarrier(ctx) }()

		leave(mem.Members[1].Addr)
		leave(mem.Members[1].Addr)
		leave("127.0.0.1:1")
		// Longer than the collect loop's tick, so it re-reads its missing set.
		select {
		case err := <-done:
			t.Fatalf("evictLast=%v: the seed released the barrier (%v) with p2's leave missing", evictLast, err)
		case <-time.After(3 * resendInterval / 2):
		}
		for _, rt := range rts[1:] {
			if rec, ok := nextBootstrap(rt, 0); ok {
				t.Fatalf("evictLast=%v: %s received %v before every member left", evictLast, rt.Principal(), rec.Type)
			}
		}

		if evictLast {
			seed.applyEviction([]wire.MemberInfo{{Principal: "p2", Addr: mem.Members[2].Addr}}, false)
		} else {
			leave(mem.Members[2].Addr)
		}
		if err := <-done; err != nil {
			t.Fatalf("evictLast=%v: departure barrier: %v", evictLast, err)
		}
		live := rts[1:]
		if evictLast {
			live = rts[1:2]
		}
		for _, rt := range live {
			if rec, ok := nextBootstrap(rt, 5*time.Second); !ok || rec.Type != wire.CtrlBye {
				t.Errorf("evictLast=%v: %s received %v (ok=%v), want its CtrlBye", evictLast, rt.Principal(), rec.Type, ok)
			}
		}
		cancel()
		net.Close()
	}
}

// nextBootstrap reads rt's endpoint for the next bootstrap record, waiting
// at most wait.
func nextBootstrap(rt *Runtime, wait time.Duration) (wire.Control, bool) {
	timeout := time.After(wait)
	for {
		select {
		case in := <-rt.Endpoint().Receive():
			if rec, ok := rt.decodeBootstrap(in.Data); ok {
				return rec, true
			}
		case <-timeout:
			return wire.Control{}, false
		}
	}
}

// TestBootstrapIgnoresForeignCluster: records of another cluster sharing
// the network must not complete a wave or corrupt membership.
func TestBootstrapIgnoresForeignCluster(t *testing.T) {
	cfg := bootConfig(t)
	other := bootConfig(t)
	other.Cluster = "other"
	other.Nodes[0].Addr = "127.0.0.1:7302"

	net := transport.NewMemNetwork()
	defer net.Close()
	seed, err := NewRuntime(cfg, "p0", net)
	if err != nil {
		t.Fatal(err)
	}
	// A foreign joiner announces to OUR seed address by mistake.
	foreign, err := NewRuntime(other, "p1", net)
	if err != nil {
		t.Fatal(err)
	}
	foreign.seedAddr = seed.Endpoint().Addr()
	fctx, fcancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer fcancel()
	go foreign.Join(fctx)

	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	_, err = seed.Join(ctx)
	var be *BootstrapError
	if !errors.As(err, &be) || len(be.Missing) != 2 {
		t.Fatalf("foreign records affected membership: %v", err)
	}
}

// TestRuntimeRejectsUnknownPrincipal covers the -node flag typo path.
func TestRuntimeRejectsUnknownPrincipal(t *testing.T) {
	cfg := bootConfig(t)
	net := transport.NewMemNetwork()
	defer net.Close()
	if _, err := NewRuntime(cfg, "px", net); err == nil || !strings.Contains(err.Error(), `no node named "px"`) {
		t.Fatalf("err = %v", err)
	}
}
