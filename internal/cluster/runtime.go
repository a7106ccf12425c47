package cluster

import (
	"context"
	"crypto/rsa"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"secureblox/internal/dist"
	"secureblox/internal/obs"
	"secureblox/internal/seccrypto"
	"secureblox/internal/transport"
	"secureblox/internal/wire"
)

// cEvictions counts members removed from this process's membership under
// the evict failure policy, whether by local detection or by gossip.
// Registered at init so it renders (at zero) on /metrics for healthy runs.
var cEvictions *obs.Counter

func init() {
	r := obs.Default()
	r.Help("sbx_cluster_evictions_total", "Cluster members evicted after exhausting the unresponsiveness budget.")
	cEvictions = r.Counter("sbx_cluster_evictions_total", nil)
}

// Runtime is one process's attachment to a cluster deployment: the config
// entry it runs as, its bound node endpoint, its keystore, and the
// bootstrap state that turns the declarative config into a live
// Membership. Lifecycle: NewRuntime (bind + load keys) → Join (handshake)
// → caller assembles its workspace and node → Ready (barrier) → BindNode →
// node runs → DepartureBarrier → Leave (drain + stop) → Close.
type Runtime struct {
	// Lifecycle, when set, is the run's lifecycle the runtime advances
	// through joining → ready → running → evicting/draining → done as the
	// handshake, barriers and run proceed. Set it before Join (sbxnode sets
	// the obs.StartLifecycle of its principal). Nil tracks nothing
	// (in-process tests run many runtimes per process).
	Lifecycle *obs.Lifecycle

	cfg       *Config
	principal string
	idx       int
	net       transport.Network
	ep        transport.Transport
	priv      *rsa.PrivateKey
	pubDER    []byte
	ks        *seccrypto.KeyStore
	seedAddr  string
	mem       *Membership
	directory []byte            // encoded CtrlDirectory message (seed only)
	ctrlCh    chan wire.Control // bootstrap records the node hands back once it owns the endpoint
	// early holds datagrams that reached this node inside the ready barrier
	// and are not bootstrap records: traffic of peers the seed released
	// first. The endpoint has acknowledged them, so they must reach the node.
	early []transport.InMsg

	// Evict failure-policy state. node and det are the peers BindNode and
	// BindDetector registered; evictMu guards evicted, which records the
	// principals removed from this process's view of the membership —
	// CtrlEvict gossip arrives on the node's transaction loop while local
	// detection runs on the main goroutine.
	node    *dist.Node
	det     *dist.Detector
	evictMu sync.Mutex
	evicted map[string]bool
}

// NewRuntime binds the node's endpoint on net at its configured listen
// address, loads its private key, and derives its shared secrets — every
// per-process precondition of the join handshake. The config must already
// be validated (LoadConfig/ParseConfig validate) and its key material
// checked against its policy (core.DeploymentPolicy). The runtime does not
// take ownership of net; callers close it after Close.
func NewRuntime(cfg *Config, principal string, net transport.Network) (*Runtime, error) {
	idx := cfg.NodeIndex(principal)
	if idx < 0 {
		return nil, fmt.Errorf("cluster %s: no node named %q in config (have %v)", cfg.Cluster, principal, cfg.Principals())
	}
	priv, err := cfg.LoadNodeKey(principal)
	if err != nil {
		return nil, err
	}
	ep, err := net.Listen(cfg.Nodes[idx].Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster %s: node %s: %w", cfg.Cluster, principal, err)
	}
	rt := &Runtime{
		cfg:       cfg,
		principal: principal,
		idx:       idx,
		net:       net,
		ep:        ep,
		priv:      priv,
		ks:        cfg.buildKeyStore(principal, priv),
		seedAddr:  cfg.Seed().Addr,
	}
	if priv != nil {
		rt.pubDER = seccrypto.MarshalPublicKey(&priv.PublicKey)
	}
	return rt, nil
}

// log returns the structured logger bound to this runtime's principal.
func (rt *Runtime) log() *slog.Logger { return obs.L().With("principal", rt.principal) }

// hstep advances the lifecycle. An illegal edge is a wiring bug: it is
// logged rather than silently ignored, but never fails the run — the
// lifecycle is an observer, not a participant.
func (rt *Runtime) hstep(to obs.State) {
	if err := rt.Lifecycle.Advance(to); err != nil {
		rt.log().Warn("lifecycle transition rejected", "err", err.Error())
	}
}

// MarkRunning advances the lifecycle to running — called once the node's
// transaction loop is started and workload facts are asserted.
func (rt *Runtime) MarkRunning() { rt.hstep(obs.StateRunning) }

// MarkFailed ends the lifecycle as failed.
func (rt *Runtime) MarkFailed() { rt.Lifecycle.Fail() }

// Principal returns the identity this runtime runs as.
func (rt *Runtime) Principal() string { return rt.principal }

// Config returns the deployment config the runtime was built from.
func (rt *Runtime) Config() *Config { return rt.cfg }

// Index returns this node's position in deployment order.
func (rt *Runtime) Index() int { return rt.idx }

// IsSeed reports whether this runtime is the bootstrap seed (the config's
// first node).
func (rt *Runtime) IsSeed() bool { return rt.idx == 0 }

// Endpoint returns the node's bound transport endpoint. During bootstrap
// the runtime consumes its receive channel; BindNode passes ownership to
// the dist.Node built over it.
func (rt *Runtime) Endpoint() transport.Transport { return rt.ep }

// KeyStore returns this node's keystore: private key and derived secrets
// from config, peer public keys from the join directory.
func (rt *Runtime) KeyStore() *seccrypto.KeyStore { return rt.ks }

// EarlyTraffic returns the datagrams Ready set aside for the node: hand them
// to dist.Node.Backlog before Start.
func (rt *Runtime) EarlyTraffic() []transport.InMsg { return rt.early }

// BindNode hands the endpoint to the node built over rt.Endpoint(): from
// then on the node's transaction loop reads it, routes the bootstrap
// records that arrive (the departure barrier's CtrlLeave/CtrlBye) back into
// the runtime, and applies eviction gossip (CtrlEvict) the moment it
// arrives. Call it after Ready and before n.Start.
func (rt *Runtime) BindNode(n *dist.Node) {
	rt.node = n
	rt.ctrlCh = make(chan wire.Control, 8*len(rt.cfg.Nodes)+8)
	n.OnControl = func(from string, rec wire.Control) {
		if rec.Cluster != rt.cfg.Cluster {
			return
		}
		if rec.Type == wire.CtrlEvict {
			// A survivor whose detector gave up first is telling us: apply
			// the delta now (Evict is safe from the transaction loop) rather
			// than waiting out our own unresponsiveness budget. Never
			// re-gossiped — every survivor that detects locally gossips once,
			// so deltas cannot storm.
			rt.applyEviction(rec.Members, false)
			return
		}
		select {
		case rt.ctrlCh <- rec:
		default: // overflow: drop, the sender's resend tick covers it
		}
	}
}

// BindDetector registers the process's termination detector so evictions —
// local or gossiped — also prune its probe membership. Call it alongside
// BindNode when the evict failure policy is enabled.
func (rt *Runtime) BindDetector(det *dist.Detector) {
	rt.det = det
}

// EvictDead applies the evict failure policy to the principals a
// WaitQuiescent failure names: they are removed from this process's node
// and detector membership (their pending frames forgotten, their counter
// pairs excluded from future waves), counted on
// sbx_cluster_evictions_total, and gossiped as a CtrlEvict directory delta
// to the surviving members so their runtimes do the same without waiting
// out their own detector budgets. Returns the principals newly evicted —
// empty when gossip already delivered the delta, which still leaves the
// caller free to retry WaitQuiescent.
func (rt *Runtime) EvictDead(ue *dist.UnresponsiveError) []string {
	rt.hstep(obs.StateEvicting)
	defer rt.hstep(obs.StateRunning)
	members := make([]wire.MemberInfo, 0, len(ue.Principals))
	for i, p := range ue.Principals {
		addr := p // detector without a name directory: principal is the addr
		if i < len(ue.Addrs) {
			addr = ue.Addrs[i]
		}
		members = append(members, wire.MemberInfo{Principal: p, Addr: addr})
	}
	return rt.applyEviction(members, true)
}

// Evicted reports whether a principal has been evicted from this process's
// view of the membership.
func (rt *Runtime) Evicted(principal string) bool {
	rt.evictMu.Lock()
	defer rt.evictMu.Unlock()
	return rt.evicted[principal]
}

// applyEviction is the single eviction path, shared by local detection
// (gossip=true) and received gossip (gossip=false). Deduplicates against
// already-applied evictions, prunes node and detector membership, and
// returns the principals newly evicted.
func (rt *Runtime) applyEviction(members []wire.MemberInfo, gossip bool) []string {
	rt.evictMu.Lock()
	if rt.evicted == nil {
		rt.evicted = make(map[string]bool)
	}
	var fresh []wire.MemberInfo
	for _, m := range members {
		// A delta naming this node is ignored: an asymmetrically partitioned
		// peer may believe we are dead, but acting on that belief here would
		// turn a live process into a zombie. Survivors that evicted us simply
		// stop counting our traffic.
		if m.Principal == rt.principal || rt.evicted[m.Principal] {
			continue
		}
		rt.evicted[m.Principal] = true
		fresh = append(fresh, m)
	}
	rt.evictMu.Unlock()
	if len(fresh) == 0 {
		return nil
	}
	addrs := make([]string, len(fresh))
	principals := make([]string, len(fresh))
	for i, m := range fresh {
		addrs[i] = m.Addr
		principals[i] = m.Principal
	}
	source := "gossip"
	if gossip {
		source = "local detection"
	}
	rt.log().Warn("evicting unresponsive", "evicted", principals, "source", source)
	if rt.node != nil {
		rt.node.Evict(addrs...)
	}
	if rt.det != nil {
		rt.det.Evict(addrs...)
	}
	if f, ok := rt.ep.(interface{ Forget(string) int }); ok {
		for _, a := range addrs {
			f.Forget(a)
		}
	}
	cEvictions.Add(int64(len(fresh)))
	if gossip && rt.mem != nil {
		delta := rt.controlMsg(wire.Control{Type: wire.CtrlEvict, Members: fresh})
		for _, m := range rt.mem.Members {
			if m.Principal != rt.principal && !rt.Evicted(m.Principal) {
				_ = rt.ep.Send(m.Addr, delta)
			}
		}
	}
	return principals
}

// Leave departs gracefully: the node's queued work is drained — committed,
// and what it ships sent, so the last commits reach the wire — and, on
// transports with a retransmit layer, the endpoint's
// unacknowledged frames are flushed (closing right after a single send of
// e.g. the departure release would cut its retransmit window and strand a
// peer behind one lost datagram). Then the node stops and closes its
// endpoint. The context bounds the flush; on expiry the node is stopped
// anyway and the error returned.
func (rt *Runtime) Leave(ctx context.Context, n *dist.Node) error {
	rt.hstep(obs.StateDraining)
	err := n.Drain(ctx)
	rt.flushEndpoint(ctx)
	n.Stop()
	if err == nil {
		rt.log().Info("left cluster", "cluster", rt.cfg.Cluster)
		rt.hstep(obs.StateDone)
	}
	return err
}

// flushEndpoint waits until the endpoint's reliability layer holds no
// unacknowledged frame, when the transport exposes that (memnet delivers
// synchronously and has nothing to flush). Best effort: a frame addressed
// to a peer that already departed will never be acknowledged, and must
// not turn a clean exit into a failure — the loop gives up on ctx expiry
// or after a bounded grace.
func (rt *Runtime) flushEndpoint(ctx context.Context) {
	pending, ok := rt.ep.(interface{ PendingFrames() int })
	if !ok {
		return
	}
	grace := time.NewTimer(2 * time.Second)
	defer grace.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for pending.PendingFrames() > 0 {
		select {
		case <-ctx.Done():
			return
		case <-grace.C:
			return
		case <-tick.C:
		}
	}
}

// Close releases what the runtime itself holds. It is safe before Join;
// after a node was built over the endpoint, stopping the node already
// closed it and Close is a no-op.
func (rt *Runtime) Close() {
	rt.ep.Close()
}
