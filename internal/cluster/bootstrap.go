package cluster

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"secureblox/internal/obs"
	"secureblox/internal/wire"
)

// resendInterval is how often bootstrap records are re-sent while the
// expected answer has not arrived. Transports are reliable once both ends
// exist; resending covers the window before the peer's socket is bound
// (and memnet's hard error for not-yet-registered addresses).
const resendInterval = 500 * time.Millisecond

// BootstrapError reports a failed join handshake: which phase stalled and
// which principals were still missing when the deadline hit.
type BootstrapError struct {
	Cluster string
	Phase   string   // "join", "directory", "ready" or "go"
	Missing []string // principals not heard from, sorted
	Err     error    // the underlying cause (usually ctx.Err())
}

func (e *BootstrapError) Error() string {
	if len(e.Missing) == 0 {
		return fmt.Sprintf("cluster %s: bootstrap %s phase: %v", e.Cluster, e.Phase, e.Err)
	}
	return fmt.Sprintf("cluster %s: bootstrap %s phase: no answer from %s: %v",
		e.Cluster, e.Phase, strings.Join(e.Missing, ", "), e.Err)
}

// Unwrap exposes the underlying cause to errors.Is.
func (e *BootstrapError) Unwrap() error { return e.Err }

// controlMsg wraps one encoded bootstrap record in the MsgControl envelope
// every node runtime already routes.
func (rt *Runtime) controlMsg(rec wire.Join) []byte {
	return wire.EncodeMessage(wire.Message{
		Kind:     wire.MsgControl,
		From:     rt.ep.Addr(),
		Payloads: [][]byte{wire.EncodeJoin(rec)},
	})
}

// decodeBootstrap extracts a bootstrap record addressed to this cluster
// from a raw datagram, or ok=false for anything else (garbage, data
// traffic, records of other clusters) — bootstrap shares the wire with
// everything else and must skip what it does not own.
func (rt *Runtime) decodeBootstrap(data []byte) (wire.Join, bool) {
	msg, err := wire.DecodeMessage(data)
	if err != nil || msg.Kind != wire.MsgControl || len(msg.Payloads) != 1 {
		return wire.Join{}, false
	}
	rec, err := wire.DecodeJoin(msg.Payloads[0])
	if err != nil || rec.Cluster != rt.cfg.Cluster {
		return wire.Join{}, false
	}
	return rec, true
}

// selfInfo is this node's join announcement.
func (rt *Runtime) selfInfo() wire.MemberInfo {
	return wire.MemberInfo{Principal: rt.principal, Addr: rt.ep.Addr(), PubKey: rt.pubDER}
}

// Join runs the bootstrap handshake until this node holds the cluster's
// full directory, or ctx expires. The seed (the config's first node)
// collects announcements from every expected principal and answers everyone
// with the completed directory; every other node announces itself to the
// seed and waits for that directory. The returned Membership carries every
// member's authoritative bound address and public key; Join also installs
// the peers' public keys into this node's keystore.
func (rt *Runtime) Join(ctx context.Context) (*Membership, error) {
	if rt.mem != nil {
		return rt.mem, nil
	}
	if rt.Health != nil {
		rt.Health.SetIdentity(rt.cfg.Cluster, rt.principal)
	}
	rt.hstep(obs.StateJoining)
	rt.log().Info("joining cluster", "cluster", rt.cfg.Cluster,
		"addr", rt.ep.Addr(), "seed", rt.seedAddr, "is_seed", rt.IsSeed())
	var err error
	if rt.IsSeed() {
		rt.mem, err = rt.seedJoin(ctx)
	} else {
		rt.mem, err = rt.announceAndAwaitDirectory(ctx)
	}
	if err != nil {
		rt.MarkFailed(err)
		return nil, err
	}
	// Distribute the directory's public keys into the local keystore: the
	// pre-verify pool and the policy constraints both look peers up there.
	if rt.spec.UsesRSA() {
		for _, m := range rt.mem.Members {
			pub, perr := rt.ks.ParsePub(m.PubKeyDER)
			if perr != nil {
				return nil, fmt.Errorf("cluster %s: directory: principal %s has a corrupt public key: %v", rt.cfg.Cluster, m.Principal, perr)
			}
			rt.ks.AddPublicKey(m.Principal, pub)
		}
	}
	return rt.mem, nil
}

// seedJoin is the seed's half of the handshake.
func (rt *Runtime) seedJoin(ctx context.Context) (*Membership, error) {
	expected := make(map[string]bool, len(rt.cfg.Nodes))
	for _, n := range rt.cfg.Nodes {
		expected[n.Principal] = true
	}
	joined := map[string]wire.MemberInfo{rt.principal: rt.selfInfo()}
	for len(joined) < len(rt.cfg.Nodes) {
		select {
		case <-ctx.Done():
			return nil, rt.bootstrapErr("join", ctx.Err(), missingOf(expected, joined))
		case in, open := <-rt.ep.Receive():
			if !open {
				return nil, rt.bootstrapErr("join", fmt.Errorf("endpoint closed"), missingOf(expected, joined))
			}
			rec, ok := rt.decodeBootstrap(in.Data)
			if !ok || rec.Type != wire.CtrlJoin || len(rec.Members) != 1 {
				continue
			}
			m := rec.Members[0]
			if !expected[m.Principal] {
				continue // not part of this deployment: ignore
			}
			if prev, dup := joined[m.Principal]; dup {
				if prev.Addr == m.Addr {
					continue // announcement resend
				}
				// The process restarted on a new port before bootstrap
				// completed; its latest address wins.
			}
			if rt.spec.UsesRSA() {
				if _, err := rt.ks.ParsePub(m.PubKey); err != nil {
					continue // unusable announcement; the joiner will resend
				}
			}
			if _, dup := joined[m.Principal]; !dup {
				rt.log().Info("member joined", "member", m.Principal, "member_addr", m.Addr,
					"joined", len(joined)+1, "expected", len(rt.cfg.Nodes))
			}
			joined[m.Principal] = m
		}
	}
	mem := &Membership{Members: make([]Member, len(rt.cfg.Nodes))}
	for i, n := range rt.cfg.Nodes {
		mi := joined[n.Principal]
		mem.Members[i] = Member{Principal: mi.Principal, Addr: mi.Addr, PubKeyDER: mi.PubKey}
	}
	rt.directory = rt.controlMsg(directoryRecord(rt.cfg.Cluster, mem))
	rt.sendDirectory(mem)
	rt.log().Info("directory distributed", "members", len(mem.Members))
	return mem, nil
}

// directoryRecord renders a membership as the CtrlDirectory wire record.
func directoryRecord(cluster string, mem *Membership) wire.Join {
	rec := wire.Join{Type: wire.CtrlDirectory, Cluster: cluster}
	for _, m := range mem.Members {
		rec.Members = append(rec.Members, wire.MemberInfo{Principal: m.Principal, Addr: m.Addr, PubKey: m.PubKeyDER})
	}
	return rec
}

// sendDirectory pushes the completed directory to every peer.
func (rt *Runtime) sendDirectory(mem *Membership) {
	for _, m := range mem.Members {
		if m.Principal != rt.principal {
			_ = rt.ep.Send(m.Addr, rt.directory)
		}
	}
}

// announceAndAwaitDirectory is the joiner's half of the handshake.
func (rt *Runtime) announceAndAwaitDirectory(ctx context.Context) (*Membership, error) {
	announce := rt.controlMsg(wire.Join{Type: wire.CtrlJoin, Cluster: rt.cfg.Cluster, Members: []wire.MemberInfo{rt.selfInfo()}})
	_ = rt.ep.Send(rt.seedAddr, announce) // errors covered by the resend tick
	tick := time.NewTicker(resendInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, rt.bootstrapErr("directory", ctx.Err(), []string{rt.cfg.Seed().Principal})
		case <-tick.C:
			_ = rt.ep.Send(rt.seedAddr, announce)
		case in, open := <-rt.ep.Receive():
			if !open {
				return nil, rt.bootstrapErr("directory", fmt.Errorf("endpoint closed"), nil)
			}
			rec, ok := rt.decodeBootstrap(in.Data)
			if !ok || rec.Type != wire.CtrlDirectory {
				continue
			}
			mem, err := rt.checkDirectory(rec)
			if err != nil {
				return nil, err
			}
			rt.log().Info("directory received", "members", len(mem.Members))
			return mem, nil
		}
	}
}

// checkDirectory validates a received directory against the config: every
// expected principal exactly once, this node's own entry carrying its real
// bound address, and usable key material under RSA policies.
func (rt *Runtime) checkDirectory(rec wire.Join) (*Membership, error) {
	if len(rec.Members) != len(rt.cfg.Nodes) {
		return nil, fmt.Errorf("cluster %s: directory has %d members, config expects %d", rt.cfg.Cluster, len(rec.Members), len(rt.cfg.Nodes))
	}
	mem := &Membership{Members: make([]Member, len(rec.Members))}
	for i, m := range rec.Members {
		if want := rt.cfg.Nodes[i].Principal; m.Principal != want {
			return nil, fmt.Errorf("cluster %s: directory slot %d holds %q, config expects %q", rt.cfg.Cluster, i, m.Principal, want)
		}
		if m.Principal == rt.principal && m.Addr != rt.ep.Addr() {
			return nil, fmt.Errorf("cluster %s: directory lists this node at %s but it is bound to %s (two processes running as %s?)", rt.cfg.Cluster, m.Addr, rt.ep.Addr(), rt.principal)
		}
		mem.Members[i] = Member{Principal: m.Principal, Addr: m.Addr, PubKeyDER: m.PubKey}
	}
	return mem, nil
}

// Ready runs the pre-transaction barrier: a node calls it once its
// workspace is installed and its setup facts are asserted, and it returns
// only when every member of the cluster has done the same — so no node's
// first transaction can race another node's setup. The seed collects one
// CtrlReady per member and answers with CtrlGo; everyone else announces
// readiness until released.
func (rt *Runtime) Ready(ctx context.Context) error {
	if rt.mem == nil {
		return fmt.Errorf("cluster %s: Ready before Join", rt.cfg.Cluster)
	}
	var err error
	if rt.IsSeed() {
		err = rt.seedReady(ctx)
	} else {
		err = rt.awaitGo(ctx)
	}
	if err != nil {
		rt.MarkFailed(err)
		return err
	}
	rt.hstep(obs.StateReady)
	rt.log().Info("ready barrier passed", "members", len(rt.mem.Members))
	return nil
}

// seedReady collects readiness from every member, then releases the
// barrier.
func (rt *Runtime) seedReady(ctx context.Context) error {
	ready := map[string]bool{rt.principal: true}
	for len(ready) < len(rt.mem.Members) {
		select {
		case <-ctx.Done():
			return rt.bootstrapErr("ready", ctx.Err(), missingOfBool(rt.mem, ready))
		case in, open := <-rt.ep.Receive():
			if !open {
				return rt.bootstrapErr("ready", fmt.Errorf("endpoint closed"), missingOfBool(rt.mem, ready))
			}
			rec, ok := rt.decodeBootstrap(in.Data)
			if !ok {
				continue
			}
			switch rec.Type {
			case wire.CtrlJoin:
				// A joiner's announcement crossed the directory broadcast:
				// answer it directly so its resend loop can stop.
				if len(rec.Members) == 1 {
					if m, found := rt.mem.ByAddr(rec.Members[0].Addr); found && m.Principal == rec.Members[0].Principal {
						_ = rt.ep.Send(m.Addr, rt.directory)
					}
				}
			case wire.CtrlReady:
				if len(rec.Members) != 1 {
					continue
				}
				if m, found := rt.mem.ByAddr(rec.Members[0].Addr); found {
					ready[m.Principal] = true
				}
			}
		}
	}
	release := rt.controlMsg(wire.Join{Type: wire.CtrlGo, Cluster: rt.cfg.Cluster})
	for _, m := range rt.mem.Members {
		if m.Principal != rt.principal {
			_ = rt.ep.Send(m.Addr, release)
		}
	}
	return nil
}

// awaitGo announces readiness to the seed until the barrier is released.
func (rt *Runtime) awaitGo(ctx context.Context) error {
	readyRec := rt.controlMsg(wire.Join{Type: wire.CtrlReady, Cluster: rt.cfg.Cluster,
		Members: []wire.MemberInfo{{Principal: rt.principal, Addr: rt.ep.Addr()}}})
	seedAddr := rt.mem.Members[0].Addr
	_ = rt.ep.Send(seedAddr, readyRec)
	tick := time.NewTicker(resendInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return rt.bootstrapErr("go", ctx.Err(), []string{rt.mem.Members[0].Principal})
		case <-tick.C:
			_ = rt.ep.Send(seedAddr, readyRec)
		case in, open := <-rt.ep.Receive():
			if !open {
				return rt.bootstrapErr("go", fmt.Errorf("endpoint closed"), nil)
			}
			rec, ok := rt.decodeBootstrap(in.Data)
			if ok && rec.Type == wire.CtrlGo {
				return nil
			}
			if !ok {
				// The seed releases members one by one, so a released peer's
				// first messages can overtake our own CtrlGo. Dropping one
				// would leave its sender's count ahead of ours forever and
				// the fixpoint unprovable.
				rt.early = append(rt.early, in)
			}
		}
	}
}

// DepartureBarrier blocks until every cluster member has announced that it
// proved the distributed fixpoint and reported its results. A node that
// exits the moment its own detector succeeds would stop answering the
// termination probes of marginally slower peers and turn their success
// into a spurious crash report; the barrier keeps every transaction loop
// alive until nobody needs it anymore. It requires BindNode before the
// node started: the records travel over the node endpoints, which the
// transaction loops own by now. The seed collects one CtrlLeave per member
// and answers with CtrlBye; everyone else announces until released.
func (rt *Runtime) DepartureBarrier(ctx context.Context) error {
	if rt.ctrlCh == nil {
		return fmt.Errorf("cluster %s: DepartureBarrier without BindNode", rt.cfg.Cluster)
	}
	rt.hstep(obs.StateDraining)
	rt.log().Info("departure barrier entered")
	if rt.IsSeed() {
		return rt.seedDeparture(ctx)
	}
	if rt.Evicted(rt.mem.Members[0].Principal) {
		// The barrier's coordinator was evicted: there is nobody to collect
		// leaves or release anyone. Survivors have all proven the fixpoint
		// against the same surviving subset, so skipping the barrier cannot
		// strand a probe.
		return nil
	}
	return rt.awaitBye(ctx)
}

// seedDeparture collects leave announcements, then releases everyone.
// Evicted members count as already departed — a dead node announces
// nothing, and waiting for it would turn every evict-policy run into a
// barrier timeout.
func (rt *Runtime) seedDeparture(ctx context.Context) error {
	left := map[string]bool{rt.principal: true}
	tick := time.NewTicker(resendInterval)
	defer tick.Stop()
	for {
		// Re-merge evictions each round: a member can be evicted while the
		// barrier is already waiting on its leave announcement.
		for _, m := range rt.mem.Members {
			if rt.Evicted(m.Principal) {
				left[m.Principal] = true
			}
		}
		if len(left) >= len(rt.mem.Members) {
			break
		}
		select {
		case <-ctx.Done():
			return rt.bootstrapErr("leave", ctx.Err(), missingOfBool(rt.mem, left))
		case <-tick.C:
			// Just re-merge evictions above.
		case rec := <-rt.ctrlCh:
			if rec.Type != wire.CtrlLeave || len(rec.Members) != 1 {
				continue
			}
			if m, found := rt.mem.ByAddr(rec.Members[0].Addr); found {
				left[m.Principal] = true
			}
		}
	}
	bye := rt.controlMsg(wire.Join{Type: wire.CtrlBye, Cluster: rt.cfg.Cluster})
	for _, m := range rt.mem.Members {
		if m.Principal != rt.principal && !rt.Evicted(m.Principal) {
			_ = rt.ep.Send(m.Addr, bye)
		}
	}
	return nil
}

// awaitBye announces this node's departure to the seed until released.
func (rt *Runtime) awaitBye(ctx context.Context) error {
	leaveRec := rt.controlMsg(wire.Join{Type: wire.CtrlLeave, Cluster: rt.cfg.Cluster,
		Members: []wire.MemberInfo{{Principal: rt.principal, Addr: rt.ep.Addr()}}})
	seedAddr := rt.mem.Members[0].Addr
	_ = rt.ep.Send(seedAddr, leaveRec)
	tick := time.NewTicker(resendInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return rt.bootstrapErr("leave", ctx.Err(), []string{rt.mem.Members[0].Principal})
		case <-tick.C:
			_ = rt.ep.Send(seedAddr, leaveRec)
		case rec := <-rt.ctrlCh:
			if rec.Type == wire.CtrlBye {
				return nil
			}
		}
	}
}

// bootstrapErr builds the phase-stamped typed error.
func (rt *Runtime) bootstrapErr(phase string, err error, missing []string) *BootstrapError {
	sort.Strings(missing)
	return &BootstrapError{Cluster: rt.cfg.Cluster, Phase: phase, Missing: missing, Err: err}
}

// missingOf lists expected principals that have not joined.
func missingOf(expected map[string]bool, joined map[string]wire.MemberInfo) []string {
	var out []string
	for p := range expected {
		if _, ok := joined[p]; !ok {
			out = append(out, p)
		}
	}
	return out
}

// missingOfBool lists members that have not reported ready.
func missingOfBool(mem *Membership, ready map[string]bool) []string {
	var out []string
	for _, m := range mem.Members {
		if !ready[m.Principal] {
			out = append(out, m.Principal)
		}
	}
	return out
}
