package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"secureblox/internal/obs"
	"secureblox/internal/transport"
	"secureblox/internal/wire"
)

// resendInterval is how often bootstrap records are re-sent while the
// expected answer has not arrived. Transports are reliable once both ends
// exist; resending covers the window before the peer's socket is bound
// (and memnet's hard error for not-yet-registered addresses).
const resendInterval = 500 * time.Millisecond

// BootstrapError reports a failed barrier: which one stalled and which
// principals were still missing when the deadline hit.
type BootstrapError struct {
	Cluster string
	Phase   string   // the barrier: "join", "ready" or "leave"
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

// controlMsg stamps a bootstrap record with this cluster's name and wraps
// it in the MsgControl envelope every node runtime already routes. The
// datagram has no spare capacity (wire.ControlMessage), so one record may go
// to every member.
func (rt *Runtime) controlMsg(rec wire.Control) []byte {
	rec.Cluster = rt.cfg.Cluster
	return wire.ControlMessage(rt.ep.Addr(), rec)
}

// decodeBootstrap extracts a bootstrap record addressed to this cluster
// from a raw datagram, or ok=false for anything else (garbage, data
// traffic, probes and reports, which name no cluster, records of other
// clusters) — bootstrap shares the wire with everything else and must skip
// what it does not own.
func (rt *Runtime) decodeBootstrap(data []byte) (wire.Control, bool) {
	rec, err := wire.ReadControl(data)
	if err != nil || rec.Cluster != rt.cfg.Cluster {
		return wire.Control{}, false
	}
	return rec, true
}

// selfInfo is this node's join announcement.
func (rt *Runtime) selfInfo() wire.MemberInfo {
	return wire.MemberInfo{Principal: rt.principal, Addr: rt.ep.Addr(), PubKey: rt.pubDER}
}

// self is the one member entry a ready or leave announcement carries.
func (rt *Runtime) self() []wire.MemberInfo {
	return []wire.MemberInfo{{Principal: rt.principal, Addr: rt.ep.Addr()}}
}

// barrier is one of the runtime's three seed-coordinated barriers: join →
// directory, ready → go and leave → bye. Every member announces itself to
// the seed until the seed's release reaches it; the seed collects one
// announcement per live member, then releases everyone. Evicted members
// count as announced — a dead node announces nothing — and a member whose
// seed was evicted has nobody to wait for. What differs by phase is passed
// in.
type barrier struct {
	// phase names the barrier in a BootstrapError.
	phase string
	// announce is the record a member sends; release is the record type
	// that ends its wait.
	announce wire.Control
	release  wire.CtrlType
	// count, on the seed, returns the principal an announcement counts
	// for, or "" when it counts for nobody.
	count func(wire.MemberInfo) string
	// other, on the seed, sees every record that is not an announcement;
	// nil ignores them.
	other func(wire.Control)
	// seal, on the seed, builds the release once everyone is counted; nil
	// sends a bare release record.
	seal func() []byte
	// accept, on a member, takes the release record; nil takes it as is.
	accept func(wire.Control) error
	// stray, on a member, takes datagrams that are not bootstrap records;
	// nil drops them.
	stray func(transport.InMsg)
}

// cross runs one barrier from this node's side of it.
func (rt *Runtime) cross(ctx context.Context, b barrier) error {
	if rt.IsSeed() {
		return rt.collect(ctx, b)
	}
	return rt.await(ctx, b)
}

// collect is the seed's side of every barrier. The tick re-reads
// evictions, which can land while the seed waits on the evicted member.
func (rt *Runtime) collect(ctx context.Context, b barrier) error {
	counted := map[string]bool{rt.principal: true}
	tick := time.NewTicker(resendInterval)
	defer tick.Stop()
	for {
		var missing []string
		for _, n := range rt.cfg.Nodes {
			if !counted[n.Principal] && !rt.Evicted(n.Principal) {
				missing = append(missing, n.Principal)
			}
		}
		if len(missing) == 0 {
			break
		}
		rec, err := rt.nextRecord(ctx, tick.C, nil, nil)
		switch {
		case err != nil:
			return rt.bootstrapErr(b.phase, err, missing)
		case rec.Type == b.announce.Type && len(rec.Members) == 1:
			if p := b.count(rec.Members[0]); p != "" {
				counted[p] = true
			}
		case b.other != nil:
			b.other(rec)
		}
	}
	msg := rt.controlMsg(wire.Control{Type: b.release})
	if b.seal != nil {
		msg = b.seal()
	}
	for _, m := range rt.mem.Members {
		if m.Principal != rt.principal && !rt.Evicted(m.Principal) {
			_ = rt.ep.Send(m.Addr, msg)
		}
	}
	return nil
}

// await is a member's side of every barrier: announce to the seed, and
// again on every tick, until the release arrives.
func (rt *Runtime) await(ctx context.Context, b barrier) error {
	seed := rt.cfg.Seed().Principal
	if rt.Evicted(seed) {
		// Survivors have all proven the fixpoint against the same surviving
		// subset, so skipping the departure barrier cannot strand a probe.
		return nil
	}
	msg := rt.controlMsg(b.announce)
	send := func() { _ = rt.ep.Send(rt.seedAddr, msg) } // errors covered by the resend tick
	send()
	tick := time.NewTicker(resendInterval)
	defer tick.Stop()
	for {
		rec, err := rt.nextRecord(ctx, tick.C, send, b.stray)
		if err != nil {
			return rt.bootstrapErr(b.phase, err, []string{seed})
		}
		if rec.Type == b.release {
			if b.accept == nil {
				return nil
			}
			return b.accept(rec)
		}
	}
}

// nextRecord waits for the next bootstrap record: off the raw endpoint
// while the runtime owns it, from the node once BindNode handed the
// endpoint over. A tick goes to onTick and a datagram that is no bootstrap
// record to stray (either may be nil); both return the zero record.
func (rt *Runtime) nextRecord(ctx context.Context, tick <-chan time.Time, onTick func(), stray func(transport.InMsg)) (wire.Control, error) {
	var raw <-chan transport.InMsg
	if rt.ctrlCh == nil {
		raw = rt.ep.Receive()
	}
	select {
	case <-ctx.Done():
		return wire.Control{}, ctx.Err()
	case <-tick:
		if onTick != nil {
			onTick()
		}
	case rec := <-rt.ctrlCh:
		return rec, nil
	case in, open := <-raw:
		if !open {
			return wire.Control{}, errors.New("endpoint closed")
		}
		if rec, ok := rt.decodeBootstrap(in.Data); ok {
			return rec, nil
		}
		if stray != nil {
			stray(in)
		}
	}
	return wire.Control{}, nil
}

// member is the count of a ready or leave announcement: the directory
// member bound at the announced address.
func (rt *Runtime) member(m wire.MemberInfo) string {
	dm, _ := rt.mem.ByAddr(m.Addr)
	return dm.Principal
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
	rt.hstep(obs.StateJoining)
	rt.log().Info("joining cluster", "cluster", rt.cfg.Cluster,
		"addr", rt.ep.Addr(), "seed", rt.seedAddr, "is_seed", rt.IsSeed())
	joined := map[string]wire.MemberInfo{rt.principal: rt.selfInfo()}
	err := rt.cross(ctx, barrier{
		phase:    "join",
		announce: wire.Control{Type: wire.CtrlJoin, Members: []wire.MemberInfo{rt.selfInfo()}},
		release:  wire.CtrlDirectory,
		count:    func(m wire.MemberInfo) string { return rt.admit(joined, m) },
		seal:     func() []byte { return rt.seal(joined) },
		accept:   rt.acceptDirectory,
	})
	if err != nil {
		rt.MarkFailed()
		return nil, err
	}
	rt.seedAddr = rt.mem.Members[0].Addr
	// A node holding a key runs the RSA scheme: distribute the directory's
	// public keys into the local keystore, where the policy constraints look
	// peers up.
	if rt.priv != nil {
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

// admit is the seed's count of one join announcement: another expected
// principal with usable key material. A process that restarted on a new
// port before bootstrap completed announces again; its latest address wins.
func (rt *Runtime) admit(joined map[string]wire.MemberInfo, m wire.MemberInfo) string {
	if m.Principal == rt.principal || rt.cfg.NodeIndex(m.Principal) < 0 {
		return "" // not a member this seed waits for: ignore
	}
	if rt.priv != nil {
		if _, err := rt.ks.ParsePub(m.PubKey); err != nil {
			return "" // unusable announcement; the joiner will resend
		}
	}
	if _, dup := joined[m.Principal]; !dup {
		rt.log().Info("member joined", "member", m.Principal, "member_addr", m.Addr,
			"joined", len(joined)+1, "expected", len(rt.cfg.Nodes))
	}
	joined[m.Principal] = m
	return m.Principal
}

// seal builds the directory from every member's announcement, in config
// order, and keeps its encoding to answer late joins with.
func (rt *Runtime) seal(joined map[string]wire.MemberInfo) []byte {
	rt.mem = &Membership{Members: make([]Member, len(rt.cfg.Nodes))}
	rec := wire.Control{Type: wire.CtrlDirectory}
	for i, n := range rt.cfg.Nodes {
		mi := joined[n.Principal]
		rt.mem.Members[i] = Member{Principal: mi.Principal, Addr: mi.Addr, PubKeyDER: mi.PubKey}
		rec.Members = append(rec.Members, mi)
	}
	rt.directory = rt.controlMsg(rec)
	rt.log().Info("directory distributed", "members", len(rt.mem.Members))
	return rt.directory
}

// acceptDirectory validates a received directory against the config:
// every expected principal exactly once, this node's own entry carrying
// its real bound address. Under RSA policies Join then checks the keys.
func (rt *Runtime) acceptDirectory(rec wire.Control) error {
	if len(rec.Members) != len(rt.cfg.Nodes) {
		return fmt.Errorf("cluster %s: directory has %d members, config expects %d", rt.cfg.Cluster, len(rec.Members), len(rt.cfg.Nodes))
	}
	mem := &Membership{Members: make([]Member, len(rec.Members))}
	for i, m := range rec.Members {
		if want := rt.cfg.Nodes[i].Principal; m.Principal != want {
			return fmt.Errorf("cluster %s: directory slot %d holds %q, config expects %q", rt.cfg.Cluster, i, m.Principal, want)
		}
		if m.Principal == rt.principal && m.Addr != rt.ep.Addr() {
			return fmt.Errorf("cluster %s: directory lists this node at %s but it is bound to %s (two processes running as %s?)", rt.cfg.Cluster, m.Addr, rt.ep.Addr(), rt.principal)
		}
		mem.Members[i] = Member{Principal: m.Principal, Addr: m.Addr, PubKeyDER: m.PubKey}
	}
	rt.mem = mem
	rt.log().Info("directory received", "members", len(mem.Members))
	return nil
}

// Ready runs the pre-transaction barrier: a node calls it once its
// workspace is installed and its setup facts are asserted, before BindNode,
// and it returns only when every member of the cluster has done the same —
// so no node's first transaction can race another node's setup.
func (rt *Runtime) Ready(ctx context.Context) error {
	if rt.mem == nil || rt.ctrlCh != nil {
		return fmt.Errorf("cluster %s: Ready must follow Join and precede BindNode", rt.cfg.Cluster)
	}
	err := rt.cross(ctx, barrier{
		phase:    "ready",
		announce: wire.Control{Type: wire.CtrlReady, Members: rt.self()},
		release:  wire.CtrlGo,
		count:    rt.member,
		other: func(rec wire.Control) {
			// A joiner's announcement crossed the directory broadcast:
			// answer it directly so its resend loop can stop.
			if rec.Type == wire.CtrlJoin && len(rec.Members) == 1 {
				if m, found := rt.mem.ByAddr(rec.Members[0].Addr); found && m.Principal == rec.Members[0].Principal {
					_ = rt.ep.Send(m.Addr, rt.directory)
				}
			}
		},
		// The seed releases members one by one, so a released peer's first
		// messages can overtake our own CtrlGo. Dropping one would leave its
		// sender's count ahead of ours forever and the fixpoint unprovable.
		stray: func(in transport.InMsg) { rt.early = append(rt.early, in) },
	})
	if err != nil {
		rt.MarkFailed()
		return err
	}
	rt.hstep(obs.StateReady)
	rt.log().Info("ready barrier passed", "members", len(rt.mem.Members))
	return nil
}

// DepartureBarrier blocks until every cluster member has announced that it
// proved the distributed fixpoint and reported its results. A node that
// exits the moment its own detector succeeds would stop answering the
// termination probes of marginally slower peers and turn their success
// into a spurious crash report; the barrier keeps every transaction loop
// alive until nobody needs it anymore. It requires BindNode before the
// node started: the records travel over the node endpoints, which the
// transaction loops own by now.
func (rt *Runtime) DepartureBarrier(ctx context.Context) error {
	if rt.ctrlCh == nil {
		return fmt.Errorf("cluster %s: DepartureBarrier without BindNode", rt.cfg.Cluster)
	}
	rt.hstep(obs.StateDraining)
	rt.log().Info("departure barrier entered")
	return rt.cross(ctx, barrier{
		phase:    "leave",
		announce: wire.Control{Type: wire.CtrlLeave, Members: rt.self()},
		release:  wire.CtrlBye,
		count:    rt.member,
	})
}

// bootstrapErr builds the phase-stamped typed error.
func (rt *Runtime) bootstrapErr(phase string, err error, missing []string) *BootstrapError {
	sort.Strings(missing)
	return &BootstrapError{Cluster: rt.cfg.Cluster, Phase: phase, Missing: missing, Err: err}
}
