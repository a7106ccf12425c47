package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"secureblox/internal/obs"
	"secureblox/internal/transport"
	"secureblox/internal/wire"
)

// cWaves counts the probe waves of every detector in the process, one per
// collect: a proof takes at least two. Registered at init so it renders (at
// zero) on /metrics before the first wave.
var cWaves *obs.Counter

func init() {
	r := obs.Default()
	r.Help("sbx_detector_waves_total", "Termination-detection probe waves run.")
	cWaves = r.Counter("sbx_detector_waves_total", nil)
}

// reprobeAfter is how long one wave waits for stragglers before re-probing
// the nodes that have not answered. Over a reliable transport a probe is
// never lost, so it bounds only how often a silent node is asked again.
const reprobeAfter = time.Second

// ErrDetectorClosed is returned by WaitQuiescent when the detector's
// endpoint closed before quiescence was proven.
var ErrDetectorClosed = errors.New("dist: detector endpoint closed")

// UnresponsiveError reports that one or more nodes stopped answering
// termination probes: a probe wave re-probed them for the detector's full
// unresponsiveness budget without a single report. In a multi-process
// deployment this is how a crashed peer surfaces — as a typed error naming
// the dead principal, not as a hang.
type UnresponsiveError struct {
	// Principals names the unresponsive nodes (their transport addresses
	// when the detector was given no principal directory).
	Principals []string
	// Addrs are the corresponding transport addresses.
	Addrs []string
	// Wave is the probe wave that gave up.
	Wave uint64
	// After is how long the wave kept re-probing before giving up.
	After time.Duration
}

func (e *UnresponsiveError) Error() string {
	return fmt.Sprintf("dist: no termination report from %s after %v (wave %d)",
		strings.Join(e.Principals, ", "), e.After.Round(time.Millisecond), e.Wave)
}

// Detector observes distributed termination purely through wire-level
// control messages — Mattern's counting-wave method. It owns one transport
// endpoint and repeatedly broadcasts probe waves to every node; each node
// answers with a snapshot of its monotone per-peer message counters (sent,
// recv) and whether it holds queued local work. Two consecutive waves in
// which every node is passive and the summed counters are identical and
// balanced (ΣSent == ΣRecv) prove that no message was in flight and no
// work happened between the waves, i.e. the distributed fixpoint of §8
// ("no new facts are derived by any node in the system") — with no shared
// in-process state whatsoever.
//
// Soundness sketch: the counters never decrease, so identical sums across
// two waves mean no node's counter moved between its two snapshots; with
// ΣSent == ΣRecv every counted message had been fully processed by its
// receiver at snapshot time; and passive nodes with no traffic in flight
// and no queued work cannot become active again. (This is why counters
// must only cover reliable peer channels: the UDP path retransmits until
// delivery, so a counted message always arrives eventually.)
type Detector struct {
	// UnresponsiveAfter bounds how long one wave keeps re-probing a silent
	// node before WaitQuiescent gives up with an UnresponsiveError — the
	// difference between a crashed remote process surfacing as a typed
	// error and hanging the caller forever. Zero (the default) means no
	// bound: probes are only answered between transactions, so a bound
	// must exceed the longest transaction a deployment can commit, a
	// judgement the in-process drivers cannot make for their callers.
	// Multi-process deployments (sbxnode) set it; cmd/sbxnode defaults it
	// to 15s.
	UnresponsiveAfter time.Duration
	// Names maps node transport addresses to principal names, so an
	// UnresponsiveError can name the dead principal rather than a socket.
	// Optional; addresses are used verbatim when absent.
	Names map[string]string

	ep transport.Transport

	// memMu guards the live membership: Evict may be applied (e.g. from
	// eviction gossip) while a WaitQuiescent is mid-wave, and the wave must
	// converge on the surviving subset.
	memMu  sync.Mutex
	nodes  []string
	member map[string]bool

	mu   sync.Mutex // serializes Wait callers
	wave uint64
}

// NewDetector builds a detector over its own endpoint and the transport
// addresses of every cluster node.
func NewDetector(ep transport.Transport, nodes []string) *Detector {
	d := &Detector{ep: ep, nodes: append([]string(nil), nodes...), member: make(map[string]bool, len(nodes))}
	for _, a := range d.nodes {
		d.member[a] = true
	}
	return d
}

// Evict removes nodes from the detector's live membership: they are no
// longer probed, their late reports are discarded, and — via the per-peer
// report breakdowns — every message pair involving them is excluded from
// the wave sums, so WaitQuiescent converges on the surviving subset (the
// dead peer's counters could otherwise never balance again). The
// detector's own endpoint also forgets their pending frames. Safe to call
// while a WaitQuiescent is in flight; a wave in progress notices on its
// next re-probe.
func (d *Detector) Evict(addrs ...string) {
	d.memMu.Lock()
	for _, a := range addrs {
		if d.member[a] {
			delete(d.member, a)
		}
	}
	live := d.nodes[:0]
	for _, a := range d.nodes {
		if d.member[a] {
			live = append(live, a)
		}
	}
	d.nodes = live
	d.memMu.Unlock()
	if f, ok := d.ep.(interface{ Forget(string) int }); ok {
		for _, a := range addrs {
			f.Forget(a)
		}
	}
}

// membership snapshots the live node list and membership set.
func (d *Detector) membership() ([]string, map[string]bool) {
	d.memMu.Lock()
	defer d.memMu.Unlock()
	nodes := append([]string(nil), d.nodes...)
	member := make(map[string]bool, len(d.member))
	for a := range d.member {
		member[a] = true
	}
	return nodes, member
}

// Close shuts the detector's endpoint down; a concurrent or later Wait
// returns once it observes the closed endpoint. Close deliberately does
// not take the Wait mutex — it is the only way to unblock a Wait whose
// fixpoint is unreachable.
func (d *Detector) Close() error {
	return d.ep.Close()
}

// waveSum aggregates one wave's reports.
type waveSum struct {
	sent, recv uint64
	active     bool
}

// WaitQuiescent blocks until two consecutive probe waves prove global
// quiescence, returning nil. It fails with ErrDetectorClosed when the
// detector's endpoint closes, with the context's error when ctx is
// cancelled, and with a typed *UnresponsiveError naming the silent
// principals when a node answers no probe for UnresponsiveAfter — a remote
// process that died mid-run yields that error instead of hanging the
// survivors forever. Every call runs fresh waves, so work enqueued before
// the call is always observed.
func (d *Detector) WaitQuiescent(ctx context.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	prev, err := d.collect(ctx)
	delay := time.Millisecond
	for {
		if err != nil {
			return err
		}
		var cur waveSum
		cur, err = d.collect(ctx)
		if err != nil {
			return err
		}
		if !prev.active && !cur.active &&
			prev.sent == cur.sent && prev.recv == cur.recv &&
			cur.sent == cur.recv {
			return nil
		}
		prev = cur
		// Back off a little between unsuccessful wave pairs so an idle
		// wait (e.g. a message crossing a slow link) doesn't spin.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
		if delay < 20*time.Millisecond {
			delay = delay * 3 / 2
		}
	}
}

// unresponsiveAfter returns the configured probe-silence budget.
func (d *Detector) unresponsiveAfter() time.Duration {
	if d.UnresponsiveAfter <= 0 {
		return time.Duration(1<<63 - 1) // unbounded
	}
	return d.UnresponsiveAfter
}

// collect runs one complete wave: probe every node, gather one report per
// node for this wave number, re-probing stragglers on a per-probe timeout.
// It fails with ErrDetectorClosed when the detector endpoint closes, the
// context's error on cancellation, and a typed *UnresponsiveError when a
// node has answered nothing for the whole unresponsiveness budget.
func (d *Detector) collect(ctx context.Context) (sum waveSum, err error) {
	d.wave++
	wave := d.wave
	cWaves.Inc()
	// One buffer goes to every node: ControlMessage leaves it no spare
	// capacity for a transport to frame it in (transport.Transport.Send).
	probe := wire.ControlMessage(d.ep.Addr(), wire.Control{Type: wire.CtrlProbe, Wave: wave})
	start := time.Now()
	budget := d.unresponsiveAfter()
	reports := make(map[string]wire.Control)
	var member map[string]bool
	for {
		// Re-snapshot the membership each round: an eviction applied
		// mid-wave (by the caller or by eviction gossip) shrinks what the
		// wave must collect, and reports already gathered from a
		// now-evicted node must not leak into the sums.
		var nodes []string
		nodes, member = d.membership()
		for addr := range reports {
			if !member[addr] {
				delete(reports, addr)
			}
		}
		missing := nodes[:0]
		for _, addr := range nodes {
			if _, done := reports[addr]; !done {
				missing = append(missing, addr)
			}
		}
		if len(missing) == 0 {
			break
		}
		for _, addr := range missing {
			_ = d.ep.Send(addr, probe)
		}
		deadline := time.NewTimer(reprobeAfter)
	recv:
		for len(reports) < len(member) {
			select {
			case in, open := <-d.ep.Receive():
				if !open {
					deadline.Stop()
					return sum, ErrDetectorClosed
				}
				c, err := wire.ReadControl(in.Data)
				if err != nil || c.Type != wire.CtrlReport || c.Wave != wave {
					continue // stale wave or not a report
				}
				if !member[in.From] {
					continue // a spoofed or evicted report must not complete a wave
				}
				reports[in.From] = c
			case <-ctx.Done():
				deadline.Stop()
				return sum, ctx.Err()
			case <-deadline.C:
				break recv // re-probe whoever has not answered
			}
		}
		deadline.Stop()
		if elapsed := time.Since(start); len(reports) < len(member) && elapsed > budget {
			still := missing[:0]
			for _, addr := range missing {
				if _, done := reports[addr]; !done {
					still = append(still, addr)
				}
			}
			return sum, d.unresponsive(still, wave, elapsed)
		}
	}
	for _, c := range reports {
		// Count only message pairs within the live membership, so traffic
		// with evicted principals — counted before they died and
		// unanswerable forever after — cannot keep the sums unbalanced.
		for _, p := range c.Peers {
			if member[p.Addr] {
				sum.sent += p.Sent
				sum.recv += p.Recv
			}
		}
		sum.active = sum.active || c.Active
	}
	return sum, nil
}

// unresponsive builds the typed error naming every node still missing from
// a wave's report set, sorted by principal name with the address list kept
// aligned.
func (d *Detector) unresponsive(missing []string, wave uint64, elapsed time.Duration) *UnresponsiveError {
	e := &UnresponsiveError{Wave: wave, After: elapsed}
	type dead struct{ name, addr string }
	deads := make([]dead, 0, len(missing))
	for _, addr := range missing {
		name := d.Names[addr]
		if name == "" {
			name = addr
		}
		deads = append(deads, dead{name: name, addr: addr})
	}
	sort.Slice(deads, func(i, j int) bool {
		if deads[i].name != deads[j].name {
			return deads[i].name < deads[j].name
		}
		return deads[i].addr < deads[j].addr
	})
	for _, x := range deads {
		e.Principals = append(e.Principals, x.name)
		e.Addrs = append(e.Addrs, x.addr)
	}
	return e
}
