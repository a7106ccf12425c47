package apps

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"secureblox/internal/core"
	"secureblox/internal/dist"
	"secureblox/internal/engine"
	"secureblox/internal/transport"
	"secureblox/internal/transport/transporttest"
	"secureblox/internal/wire"
)

// This file is the differential oracle of inbound group commit: how a node's
// backlog happens to be cut into transactions must never change what a
// deterministic program computes or ships. One live run of the application
// records, per node, the datagrams it received, in order; each node is then
// rebuilt over a scripted endpoint and fed that same sequence under different
// run boundaries — one datagram per transaction (the runtime's behaviour
// before coalescing), everything at once (cut only by the run budget), and
// random cuts — and must end with identical extents for every predicate and
// an identical set of shipped payloads.
//
// Path-vector is not in the oracle: its answer depends on arrival order at the
// parent commit already (ROADMAP item 1), so it stays gated by its own
// validator and by the benchmark's apps.oracle_share, which coalescing must
// not lower.

// coalesceApp is an application the oracle can rebuild at will: build returns
// an unstarted cluster over the given network and what each node asserts.
type coalesceApp struct {
	name  string
	build func(net transport.Network) (*core.Cluster, [][]engine.Fact, error)
}

var coalesceApps = []coalesceApp{
	{"hashjoin", func(net transport.Network) (*core.Cluster, [][]engine.Fact, error) {
		c, parts, _, err := newHashJoin(smallJoin(3, core.PolicyConfig{}, 11), net)
		return c, parts, err
	}},
	{"anonjoin", func(net transport.Network) (*core.Cluster, [][]engine.Fact, error) {
		c, pub, ints, err := newAnonJoin(AnonJoinConfig{Relays: 1, Interests: 24, PublicRows: 40, Overlap: 16, Seed: 3}, core.PolicyConfig{}, net)
		if err != nil {
			return nil, nil, err
		}
		inputs := make([][]engine.Fact, len(c.Nodes))
		inputs[0], inputs[len(inputs)-1] = ints, pub
		return c, inputs, nil
	}},
}

// replayNet is a memnet that hands out one scripted endpoint at one address.
type replayNet struct {
	*transport.MemNetwork
	at string
	ep *transporttest.Scripted
}

func (n replayNet) Listen(hint string) (transport.Transport, error) {
	if hint == n.at {
		return n.ep, nil
	}
	return n.MemNetwork.Listen(hint)
}

func drain(t *testing.T, n *dist.Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := n.Drain(ctx); err != nil {
		t.Fatalf("drain %s: %v", n.Principal, err)
	}
}

// recordInbound runs the application live and returns, per node, the data
// datagrams delivered to it, in delivery order. Inputs are asserted a few
// facts at a time, each as its own transaction, so that every node sees a
// long sequence of small datagrams — the traffic shape coalescing acts on.
func recordInbound(t *testing.T, app coalesceApp) [][]transport.InMsg {
	t.Helper()
	net := transport.NewMemNetwork()
	var mu sync.Mutex
	byAddr := map[string][]transport.InMsg{}
	net.OnDeliver = func(from, to string, data []byte) {
		if m, err := wire.DecodeMessage(data); err != nil || m.Kind == wire.MsgControl {
			return
		}
		mu.Lock()
		byAddr[to] = append(byAddr[to], transport.InMsg{From: from, Data: append([]byte(nil), data...)})
		mu.Unlock()
	}
	c, inputs, err := app.build(net)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	for i, facts := range inputs {
		for len(facts) > 0 {
			k := min(4, len(facts))
			c.AssertAt(i, facts[:k])
			drain(t, c.Nodes[i])
			facts = facts[k:]
		}
	}
	done := make(chan struct{})
	go func() { c.WaitFixpoint(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("live run did not reach its fixpoint")
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("live run: %v", v)
	}
	mu.Lock()
	defer mu.Unlock()
	out := make([][]transport.InMsg, len(c.Nodes))
	for i, addr := range c.Addrs {
		out[i] = byAddr[addr]
	}
	return out
}

// replay rebuilds node r over a scripted endpoint, lets it commit its own
// input, then hands it the recorded sequence cut at the given sizes (each cut
// one hand-off, so one run unless the budget cuts it again). It returns the
// node's final database, the set of payloads it shipped, and how many inbound
// transactions it ran.
func replay(t *testing.T, app coalesceApp, r int, seq []transport.InMsg, cuts []int) (db, shipped string, txns int64) {
	t.Helper()
	ep := transporttest.NewScripted(core.NodeAddr(r))
	c, inputs, err := app.build(replayNet{transport.NewMemNetwork(), core.NodeAddr(r), ep})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	node := c.Nodes[r]
	node.Start()
	local, _ := node.Metrics.TxnStats()
	if len(inputs[r]) > 0 {
		node.Assert(inputs[r])
		drain(t, node)
		local, _ = node.Metrics.TxnStats()
	}
	fed := 0
	for _, k := range cuts {
		ep.Deliver(seq[fed : fed+k]...)
		fed += k
		deadline := time.Now().Add(20 * time.Second)
		for node.Metrics.MsgsProcessed() < int64(fed) {
			if time.Now().After(deadline) {
				t.Fatalf("node %d processed %d of %d datagrams fed", r, node.Metrics.MsgsProcessed(), fed)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	if fed != len(seq) {
		t.Fatalf("cuts cover %d of %d datagrams", fed, len(seq))
	}
	drain(t, node)
	if v := node.Violations(); len(v) != 0 {
		t.Fatalf("replay of node %d: %v", r, v)
	}
	var rows []string
	for _, pred := range node.WS.Predicates() {
		for _, tp := range node.WS.Tuples(pred) {
			rows = append(rows, pred+tp.String())
		}
	}
	sort.Strings(rows)
	seen := map[string]bool{}
	var sent []string
	for _, s := range ep.Sent() {
		m, err := wire.DecodeMessage(s.Data)
		if err != nil {
			t.Fatalf("node %d sent an undecodable datagram: %v", r, err)
		}
		for _, p := range m.Payloads {
			if k := fmt.Sprintf("%s|%x", s.To, p); !seen[k] {
				seen[k] = true
				sent = append(sent, k)
			}
		}
	}
	sort.Strings(sent)
	total, _ := node.Metrics.TxnStats()
	return strings.Join(rows, "\n"), strings.Join(sent, "\n"), total - local
}

func TestCoalescingNeverChangesADeterministicAnswer(t *testing.T) {
	for _, app := range coalesceApps {
		t.Run(app.name, func(t *testing.T) {
			inbound := recordInbound(t, app)
			rng := rand.New(rand.NewSource(7))
			for r, seq := range inbound {
				if len(seq) == 0 {
					continue
				}
				ones := make([]int, len(seq))
				for i := range ones {
					ones[i] = 1
				}
				wantDB, wantSent, perDatagram := replay(t, app, r, seq, ones)
				if perDatagram != int64(len(seq)) {
					t.Fatalf("node %d: %d transactions for %d datagrams fed one at a time", r, perDatagram, len(seq))
				}
				schedules := [][]int{{len(seq)}}
				for i := 0; i < 3; i++ {
					var cuts []int
					for left := len(seq); left > 0; {
						k := min(1+rng.Intn(12), left)
						cuts = append(cuts, k)
						left -= k
					}
					schedules = append(schedules, cuts)
				}
				for _, cuts := range schedules {
					db, sent, txns := replay(t, app, r, seq, cuts)
					if db != wantDB {
						t.Errorf("node %d, cuts %v: database differs from one-datagram-per-transaction:\n%s", r, cuts, diffLines(wantDB, db))
					}
					if sent != wantSent {
						t.Errorf("node %d, cuts %v: shipped payload set differs:\n%s", r, cuts, diffLines(wantSent, sent))
					}
					if len(seq) > 1 && len(cuts) < len(seq) && txns >= perDatagram {
						t.Errorf("node %d, cuts %v: %d transactions for %d datagrams: nothing was coalesced", r, cuts, txns, len(seq))
					}
				}
				t.Logf("node %d: %d datagrams, identical under %d schedules", r, len(seq), len(schedules)+1)
			}
		})
	}
}

// diffLines lists the lines only one of two sorted line sets has.
func diffLines(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var out []string
	for l := range w {
		if !g[l] {
			out = append(out, "- "+l)
		}
	}
	for l := range g {
		if !w[l] {
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	if len(out) > 20 {
		out = append(out[:20], fmt.Sprintf("… %d more", len(out)-20))
	}
	return strings.Join(out, "\n")
}
