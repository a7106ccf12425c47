package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"secureblox/internal/obs"
)

// cChaosFaults counts injected faults by kind (drop/dup/garble/delay/
// reorder/partition/crash), one series per kind once it has fired.
var chaosReg = obs.Default()

func init() {
	chaosReg.Help("sbx_chaos_faults_total", "Faults injected by the chaos engine, by kind.")
}

func chaosCount(kind string) {
	chaosReg.Counter("sbx_chaos_faults_total", obs.Labels{"kind": kind}).Inc()
}

// ChaosLink is one directed-link fault rule: probabilities of dropping,
// duplicating, corrupting and reordering each datagram sent from From to
// To, plus a fixed per-datagram delay with optional random jitter. "*"
// matches any principal. The first matching rule applies.
type ChaosLink struct {
	From     string  `json:"from"`
	To       string  `json:"to"`
	Drop     float64 `json:"drop,omitempty"`
	Dup      float64 `json:"dup,omitempty"`
	Garble   float64 `json:"garble,omitempty"`
	Reorder  float64 `json:"reorder,omitempty"`
	DelayMs  int     `json:"delay_ms,omitempty"`
	JitterMs int     `json:"jitter_ms,omitempty"`
}

// ChaosPartition cuts every link between side A and side B from AtMs until
// HealMs on the plan clock; HealMs 0 means the partition never heals.
type ChaosPartition struct {
	A      []string `json:"a"`
	B      []string `json:"b"`
	AtMs   int      `json:"at_ms"`
	HealMs int      `json:"heal_ms,omitempty"`
}

// ChaosCrash silences one node from AtMs on the plan clock: every datagram
// it sends or is sent is dropped. HangMs 0 means a permanent crash (sbxnode
// also ends that principal's run, exit 7); a positive HangMs is a hang — the
// node falls silent for that long and then resumes.
type ChaosCrash struct {
	Node   string `json:"node"`
	AtMs   int    `json:"at_ms"`
	HangMs int    `json:"hang_ms,omitempty"`
}

// ChaosPlan is a scriptable, seeded-deterministic fault schedule: link
// fault rules, timed partitions and node crash/hang events, all referring
// to nodes by principal name. The plan clock starts at ChaosEngine.Start
// (the cluster's ready barrier), so bootstrap traffic is never faulted and
// a schedule means the same thing on every run regardless of join latency.
type ChaosPlan struct {
	Seed       int64            `json:"seed"`
	Links      []ChaosLink      `json:"links,omitempty"`
	Partitions []ChaosPartition `json:"partitions,omitempty"`
	Crashes    []ChaosCrash     `json:"crashes,omitempty"`
}

// ParseChaosPlan decodes and validates a JSON fault plan, rejecting
// unknown fields so schedule typos fail loudly instead of silently
// injecting nothing.
func ParseChaosPlan(data []byte) (*ChaosPlan, error) {
	var p ChaosPlan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("chaos plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

func probOK(v float64) bool { return v >= 0 && v <= 1 }

// Validate checks every rule for well-formedness: probabilities in [0,1],
// non-negative times, named endpoints, partitions that heal after they cut.
func (p *ChaosPlan) Validate() error {
	for i, l := range p.Links {
		if l.From == "" || l.To == "" {
			return fmt.Errorf("chaos plan: link %d: from and to are required (\"*\" matches any)", i)
		}
		if !probOK(l.Drop) || !probOK(l.Dup) || !probOK(l.Garble) || !probOK(l.Reorder) {
			return fmt.Errorf("chaos plan: link %d (%s->%s): probabilities must be in [0,1]", i, l.From, l.To)
		}
		if l.DelayMs < 0 || l.JitterMs < 0 {
			return fmt.Errorf("chaos plan: link %d (%s->%s): negative delay", i, l.From, l.To)
		}
	}
	for i, pt := range p.Partitions {
		if len(pt.A) == 0 || len(pt.B) == 0 {
			return fmt.Errorf("chaos plan: partition %d: both sides must name nodes", i)
		}
		if pt.AtMs < 0 {
			return fmt.Errorf("chaos plan: partition %d: negative at_ms", i)
		}
		if pt.HealMs != 0 && pt.HealMs <= pt.AtMs {
			return fmt.Errorf("chaos plan: partition %d: heal_ms %d must be after at_ms %d", i, pt.HealMs, pt.AtMs)
		}
	}
	for i, cr := range p.Crashes {
		if cr.Node == "" {
			return fmt.Errorf("chaos plan: crash %d: node is required", i)
		}
		if cr.AtMs < 0 || cr.HangMs < 0 {
			return fmt.Errorf("chaos plan: crash %d (%s): negative time", i, cr.Node)
		}
	}
	return nil
}

// ChaosEngine executes a plan for one process: Wrap interposes it under a
// reliable endpoint (so injected loss turns into retransmission latency,
// exactly like real packet loss), Resolve teaches it which transport
// addresses belong to which principals once the directory is known, and
// Start begins the plan clock. One engine is shared by every endpoint of
// the process; each process of a cluster runs the same plan, so the
// schedule is globally coherent — a node's crash silences its outbound
// sends locally and its inbound traffic at every sender.
type ChaosEngine struct {
	plan *ChaosPlan

	mu    sync.Mutex
	start time.Time                // zero until Start
	names map[string]string        // transport addr -> principal
	rngs  map[string]*rand.Rand    // per directed principal pair
	timer map[*time.Timer]struct{} // outstanding delayed deliveries
}

// NewChaosEngine builds an engine over a validated plan.
func NewChaosEngine(plan *ChaosPlan) *ChaosEngine {
	return &ChaosEngine{
		plan:  plan,
		names: make(map[string]string),
		rngs:  make(map[string]*rand.Rand),
		timer: make(map[*time.Timer]struct{}),
	}
}

// Plan returns the engine's schedule.
func (e *ChaosEngine) Plan() *ChaosPlan { return e.plan }

// Resolve records which transport addresses belong to which principals
// (addr -> principal), merged with previous calls. Until an address
// resolves, only "*" link rules can match it and partitions/crashes naming
// principals cannot.
func (e *ChaosEngine) Resolve(byAddr map[string]string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for addr, prin := range byAddr {
		e.names[addr] = prin
	}
}

// Start begins the plan clock; before it the engine passes traffic through
// untouched. Idempotent. Scheduled faults (partitions cutting or healing,
// crashes silencing a node) are announced on the structured log as the
// clock reaches them, so a log dump lines injected faults up with the
// symptoms they caused.
func (e *ChaosEngine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.start.IsZero() {
		return
	}
	e.start = time.Now()
	announce := func(afterMs int, level obs.Level, msg string, kv ...any) {
		t := time.AfterFunc(time.Duration(afterMs)*time.Millisecond, func() {
			obs.L().Log(level, msg, kv...)
		})
		e.timer[t] = struct{}{}
	}
	for _, pt := range e.plan.Partitions {
		announce(pt.AtMs, obs.LevelWarn, "chaos partition cut",
			"side_a", fmt.Sprint(pt.A), "side_b", fmt.Sprint(pt.B))
		if pt.HealMs > 0 {
			announce(pt.HealMs, obs.LevelInfo, "chaos partition healed",
				"side_a", fmt.Sprint(pt.A), "side_b", fmt.Sprint(pt.B))
		}
	}
	for _, cr := range e.plan.Crashes {
		kind := "crash"
		if cr.HangMs > 0 {
			kind = "hang"
		}
		announce(cr.AtMs, obs.LevelWarn, "chaos node silenced",
			"node", cr.Node, "kind", kind)
	}
}

// CrashAt reports the principal's crash/hang schedule entry, if any, as
// offsets on the plan clock. Drivers use it to end their own run at a
// scheduled permanent crash (HangMs 0) instead of merely falling silent.
func (e *ChaosEngine) CrashAt(principal string) (at, hang time.Duration, ok bool) {
	for _, cr := range e.plan.Crashes {
		if cr.Node == principal {
			return time.Duration(cr.AtMs) * time.Millisecond,
				time.Duration(cr.HangMs) * time.Millisecond, true
		}
	}
	return 0, 0, false
}

// Wrap interposes the engine on a transport's send path. Receive passes
// through: every fault is injected at the sending side, which keeps one
// shared plan coherent across processes without double-applying rules.
func (e *ChaosEngine) Wrap(inner Transport) Transport {
	return &chaosTransport{e: e, Transport: inner}
}

func (e *ChaosEngine) rngForLocked(from, to string) *rand.Rand {
	key := from + "|" + to
	if r := e.rngs[key]; r != nil {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	r := rand.New(rand.NewSource(e.plan.Seed ^ int64(h.Sum64())))
	e.rngs[key] = r
	return r
}

func chaosMatch(pat, name string) bool { return pat == "*" || pat == name }

func onSide(side []string, name string) bool {
	for _, s := range side {
		if s == name {
			return true
		}
	}
	return false
}

// chaosAction is one send's fate.
type chaosAction struct {
	drop    bool
	kind    string // fault kind for the counter when drop is set
	dup     bool
	garble  bool
	flip    int // garble byte index source
	delay   time.Duration
	reorder bool
}

// judge decides one datagram's fate under the plan. Crash/hang silence
// wins, then partitions, then the first matching link rule.
func (e *ChaosEngine) judge(fromAddr, toAddr string) chaosAction {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.start.IsZero() {
		return chaosAction{}
	}
	now := time.Since(e.start)
	from, ok := e.names[fromAddr]
	if !ok {
		from = fromAddr
	}
	to, ok := e.names[toAddr]
	if !ok {
		to = toAddr
	}
	for _, cr := range e.plan.Crashes {
		if cr.Node != from && cr.Node != to {
			continue
		}
		at := time.Duration(cr.AtMs) * time.Millisecond
		if now < at {
			continue
		}
		if cr.HangMs == 0 || now < at+time.Duration(cr.HangMs)*time.Millisecond {
			return chaosAction{drop: true, kind: "crash"}
		}
	}
	for _, pt := range e.plan.Partitions {
		if now < time.Duration(pt.AtMs)*time.Millisecond {
			continue
		}
		if pt.HealMs != 0 && now >= time.Duration(pt.HealMs)*time.Millisecond {
			continue
		}
		if (onSide(pt.A, from) && onSide(pt.B, to)) || (onSide(pt.B, from) && onSide(pt.A, to)) {
			return chaosAction{drop: true, kind: "partition"}
		}
	}
	for i := range e.plan.Links {
		ln := &e.plan.Links[i]
		if !chaosMatch(ln.From, from) || !chaosMatch(ln.To, to) {
			continue
		}
		rng := e.rngForLocked(from, to)
		if ln.Drop > 0 && rng.Float64() < ln.Drop {
			return chaosAction{drop: true, kind: "drop"}
		}
		var act chaosAction
		if ln.Dup > 0 && rng.Float64() < ln.Dup {
			act.dup = true
		}
		if ln.Garble > 0 && rng.Float64() < ln.Garble {
			act.garble = true
			act.flip = rng.Intn(1 << 16)
		}
		act.delay = time.Duration(ln.DelayMs) * time.Millisecond
		if ln.JitterMs > 0 {
			act.delay += time.Duration(rng.Float64() * float64(ln.JitterMs) * float64(time.Millisecond))
		}
		if ln.Reorder > 0 && rng.Float64() < ln.Reorder {
			// Hold the datagram past its successors' likely send times.
			act.delay += time.Duration(1+rng.Intn(20)) * time.Millisecond
			act.reorder = true
		}
		return act
	}
	return chaosAction{}
}

// chaosTransport applies the engine's verdicts on the send path.
type chaosTransport struct {
	e *ChaosEngine
	Transport
}

func (c *chaosTransport) Send(to string, data []byte) error {
	act := c.e.judge(c.Transport.Addr(), to)
	if act.drop {
		chaosCount(act.kind)
		return nil // silently lost, like the packet it models
	}
	if act.garble {
		chaosCount("garble")
		corrupted := append([]byte(nil), data...)
		if len(corrupted) > 0 {
			corrupted[act.flip%len(corrupted)] ^= 0xFF
		} else {
			corrupted = append(corrupted, 0xFF)
		}
		data = corrupted
	}
	if act.dup {
		chaosCount("dup")
	}
	if act.delay > 0 {
		if act.reorder {
			chaosCount("reorder")
		} else {
			chaosCount("delay")
		}
		held := append([]byte(nil), data...)
		dup := act.dup
		// The timer pointer is published under the engine mutex and the
		// closure re-reads it under the same mutex, so an immediately-firing
		// timer still observes its own registration.
		c.e.mu.Lock()
		var t *time.Timer
		t = time.AfterFunc(act.delay, func() {
			c.e.mu.Lock()
			delete(c.e.timer, t)
			c.e.mu.Unlock()
			_ = c.Transport.Send(to, held) // endpoint may be closed; loss is in-model
			if dup {
				_ = c.Transport.Send(to, held)
			}
		})
		c.e.timer[t] = struct{}{}
		c.e.mu.Unlock()
		return nil
	}
	err := c.Transport.Send(to, data)
	if act.dup {
		_ = c.Transport.Send(to, data)
	}
	return err
}

// Close cancels outstanding delayed deliveries before closing the inner
// endpoint, so a held datagram cannot fire into a freed socket long after
// shutdown.
func (c *chaosTransport) Close() error {
	c.e.mu.Lock()
	for t := range c.e.timer {
		t.Stop()
	}
	c.e.timer = make(map[*time.Timer]struct{})
	c.e.mu.Unlock()
	return c.Transport.Close()
}
