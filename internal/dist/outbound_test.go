package dist_test

import (
	"context"
	"testing"
	"time"

	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/obs"
	"secureblox/internal/seccrypto"
	"secureblox/internal/transport"
	"secureblox/internal/wire"
)

// TestOneSignaturePerShippingTransaction: under RSA-batch the signed unit is
// the transaction's whole export set. A transaction that ships to three routes
// costs exactly one private-key operation and puts three envelopes on the wire
// that each receiver accepts on its own; one that ships more than
// wire.MaxGroup envelopes is cut into ⌈k/MaxGroup⌉ groups, one signature each.
// Only the sender runs while signatures are counted — a receiver's ack would be
// a signature of its own.
func TestOneSignaturePerShippingTransaction(t *testing.T) {
	const n = wire.MaxGroup + 2 // the sender and MaxGroup+1 receivers
	policy := core.PolicyConfig{Auth: core.AuthRSA, BatchSign: true, Delegation: core.DelegateNone}
	c, err := core.NewCluster(core.ClusterConfig{N: n, Policy: policy, Query: adversaryQuery, Seed: 5})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Stop)
	sender := c.Nodes[advSender]
	sender.Start()

	got := make([][]transport.InMsg, n) // what each receiver's endpoint was sent
	// shipTo commits one sender transaction naming principals lo..hi-1 as new
	// peers and saying x, and collects the one envelope each of the peers
	// named so far (1..hi-1) is sent.
	shipTo := func(lo, hi int, x int64) (envs []wire.Message, signs int64, groups obs.HistSnapshot) {
		t.Helper()
		signs, groups = seccrypto.SignOps(), obs.Default().HistogramSnapshot("sbx_batch_group_envelopes")
		var peers []int
		for i := lo; i < hi; i++ {
			peers = append(peers, i)
		}
		sender.Assert(append(peerFacts(c, peers...), engine.Fact{Pred: "msg", Tuple: datalog.Tuple{datalog.Int64(x)}}))
		for i := 1; i < hi; i++ {
			select {
			case m := <-c.MemNet().Endpoint(c.Addrs[i]).Receive():
				msg, err := wire.DecodeMessage(m.Data)
				if err != nil || msg.Kind != wire.MsgBatch {
					t.Fatalf("receiver %d was sent %+v (%v), want a batch envelope", i, msg, err)
				}
				got[i] = append(got[i], m)
				envs = append(envs, msg)
			case <-time.After(10 * time.Second):
				t.Fatalf("receiver %d got no envelope (violations: %v)", i, sender.Violations())
			}
		}
		return envs, seccrypto.SignOps() - signs, obs.Default().HistogramSnapshot("sbx_batch_group_envelopes").Sub(groups)
	}
	// groupSizes counts the envelopes by the size of the group they say they
	// are in, and the distinct signatures among them.
	groupSizes := func(envs []wire.Message) (bySize map[int]int, sigs int) {
		bySize, seen := map[int]int{}, map[string]bool{}
		for _, e := range envs {
			bySize[len(e.Siblings)/wire.DigestSize+1]++
			seen[string(e.Sig)] = true
		}
		return bySize, len(seen)
	}

	envs, signs, groups := shipTo(1, 4, 100)
	if bySize, sigs := groupSizes(envs); signs != 1 || sigs != 1 || bySize[3] != 3 {
		t.Errorf("3 routes: %d sign ops, %d distinct signatures, envelopes by group size %v; want 1, 1, three of a group of 3", signs, sigs, bySize)
	}
	if groups.Count != 1 || groups.Sum != 3 {
		t.Errorf("sbx_batch_group_envelopes after 3 routes: %d groups covering %v envelopes, want 1 covering 3", groups.Count, groups.Sum)
	}
	pos := map[uint32]bool{}
	for _, e := range envs {
		pos[e.Pos] = true
	}
	if len(pos) != 3 {
		t.Errorf("the group's envelopes claim positions %v, want 0, 1 and 2", pos)
	}

	// The second transaction says 100 to the 14 new peers and 101 to all 17:
	// one envelope per route, MaxGroup+1 of them.
	envs, signs, groups = shipTo(4, n, 101)
	if bySize, sigs := groupSizes(envs); signs != 2 || sigs != 2 || bySize[wire.MaxGroup] != wire.MaxGroup || bySize[1] != 1 {
		t.Errorf("%d routes: %d sign ops, %d distinct signatures, envelopes by group size %v; want 2, 2, a full group and a lone envelope",
			len(envs), signs, sigs, bySize)
	}
	if groups.Count != 2 || groups.Sum != wire.MaxGroup+1 {
		t.Errorf("sbx_batch_group_envelopes after %d routes: %d groups covering %v envelopes", len(envs), groups.Count, groups.Sum)
	}

	// Every receiver accepts what it was sent without ever seeing a sibling.
	for i := 1; i < n; i++ {
		c.Nodes[i].Backlog = got[i]
		c.Nodes[i].Start()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.WaitFixpointCtx(ctx); err != nil {
		t.Fatalf("no fixpoint once the receivers run: %v", err)
	}
	for i := 1; i < n; i++ {
		if v := c.Nodes[i].Violations(); len(v) != 0 || c.Nodes[i].WS.Count("inbox") != 2 {
			t.Errorf("receiver %d holds %d of 2 facts, violations %v", i, c.Nodes[i].WS.Count("inbox"), v)
		}
	}
	if acks := sender.WS.Count("ack"); acks != 2 || len(sender.Violations()) != 0 {
		t.Errorf("sender holds %d of 2 acks, violations %v", acks, sender.Violations())
	}
}
