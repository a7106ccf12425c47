package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"secureblox/internal/obs"
)

// The reliability counters, aggregated across every endpoint of the process
// (an endpoint counts into its own children of the first four). Registered at
// init so the transport families render (at zero) on /metrics even on
// loss-free runs.
var (
	cRetransmits *obs.Counter
	cDupDrops    *obs.Counter
	cCRCRejects  *obs.Counter
	cLosses      *obs.Counter
	cBackoffs    *obs.Counter
	cDeferrals   *obs.Counter
	cForgotten   *obs.Counter
)

func init() {
	r := obs.Default()
	r.Help("sbx_transport_retransmits_total", "Data frames re-sent while awaiting acknowledgement.")
	r.Help("sbx_transport_dup_drops_total", "Redelivered frames suppressed by the receive dedup window.")
	r.Help("sbx_transport_crc_rejects_total", "Inbound datagrams dropped as garbage or CRC failures.")
	r.Help("sbx_transport_frame_losses_total", "Frames abandoned after MaxAttempts retransmissions.")
	r.Help("sbx_transport_backoffs_total", "Retransmissions fired at a backed-off (beyond base) interval.")
	r.Help("sbx_transport_send_deferrals_total", "Sends queued unsent because the destination hit its in-flight cap.")
	r.Help("sbx_transport_forgotten_frames_total", "Pending frames purged by Forget after a peer was evicted.")
	cRetransmits = r.Counter("sbx_transport_retransmits_total", nil)
	cDupDrops = r.Counter("sbx_transport_dup_drops_total", nil)
	cCRCRejects = r.Counter("sbx_transport_crc_rejects_total", nil)
	cLosses = r.Counter("sbx_transport_frame_losses_total", nil)
	cBackoffs = r.Counter("sbx_transport_backoffs_total", nil)
	cDeferrals = r.Counter("sbx_transport_send_deferrals_total", nil)
	cForgotten = r.Counter("sbx_transport_forgotten_frames_total", nil)
}

// ReliabilityStats is one endpoint's view of the reliable layer's work:
// how much redundancy (retransmits), redundancy's cost at the receiver
// (dup drops), corruption (CRC rejects) and abandonment (losses) the
// substrate exhibited.
type ReliabilityStats struct {
	Retransmits int64 // data frames re-sent
	DupDrops    int64 // redelivered frames suppressed
	CRCRejects  int64 // garbage/corrupted datagrams dropped
	Losses      int64 // frames abandoned after MaxAttempts
}

// Reliable-layer frame types. Distinctive bytes keep random garbage from
// parsing as a frame by accident (a CRC check backstops the rest).
const (
	frameData = 0x44 // 'D'
	frameAck  = 0x41 // 'A'
)

// reliableOverhead is the framing the reliable layer adds to a payload:
// type byte + CRC32 + sequence varint.
const reliableOverhead = 1 + 4 + binary.MaxVarintLen64

// ReliableConfig tunes the acknowledge/retransmit layer.
type ReliableConfig struct {
	// RetransmitInterval is the base delay before the first retransmission
	// of an unacknowledged frame; later retransmissions back off
	// exponentially from it. Zero means the 50ms default.
	RetransmitInterval time.Duration
	// MaxAttempts bounds retransmissions per frame; once exceeded the
	// frame is dropped and counted as a loss. Zero means retry forever —
	// the right default for termination detection, which relies on every
	// counted message eventually arriving.
	MaxAttempts int
	// MaxBackoff caps the per-frame exponential backoff so an evicted-peer
	// purge or a healed partition is noticed within a bounded delay. Zero
	// means 16x the base interval.
	MaxBackoff time.Duration
	// MaxInflight caps how many unacknowledged frames may be on the wire
	// per destination; further sends are queued unsent until slots free
	// up, so a dead or partitioned peer stops consuming bandwidth
	// proportional to the backlog. Zero means 512.
	MaxInflight int
}

func (c ReliableConfig) interval() time.Duration {
	if c.RetransmitInterval <= 0 {
		return 50 * time.Millisecond
	}
	return c.RetransmitInterval
}

func (c ReliableConfig) maxBackoff() time.Duration {
	if c.MaxBackoff <= 0 {
		return 16 * c.interval()
	}
	return c.MaxBackoff
}

func (c ReliableConfig) maxInflight() int {
	if c.MaxInflight <= 0 {
		return 512
	}
	return c.MaxInflight
}

// pollInterval is how often the retransmit loop wakes to scan for due
// frames and free in-flight slots: a quarter of the base interval, clamped
// so tests with millisecond intervals stay fast and production configs
// don't spin.
func (c ReliableConfig) pollInterval() time.Duration {
	p := c.interval() / 4
	if p < time.Millisecond {
		p = time.Millisecond
	}
	if p > 25*time.Millisecond {
		p = 25 * time.Millisecond
	}
	return p
}

// ReliableEndpoint layers message-level reliability over a lossy datagram
// Transport (udpnet in practice): every frame carries a per-destination
// sequence number and a CRC; receivers acknowledge each data frame and
// deduplicate redeliveries, senders retransmit until acknowledged. Corrupted
// frames fail the CRC and are dropped, which turns garbling into loss and
// loss into latency — exactly what the termination-detection counters need
// to stay balanced over real UDP.
type ReliableEndpoint struct {
	inner Transport
	cfg   ReliableConfig
	q     *queue

	mu       sync.Mutex
	nextSeq  map[string]uint64              // per-destination last used seq
	pending  map[string]map[uint64]*unacked // per-destination unacked frames
	inflight map[string]int                 // per-destination frames on the wire
	seen     map[string]*dedupState         // per-source delivery dedup
	rng      *rand.Rand                     // retransmit jitter (mu-guarded)
	closed   bool

	// This endpoint's children of the process-wide reliability families.
	losses      *obs.Counter // frames dropped after MaxAttempts
	retransmits *obs.Counter // data frames re-sent
	dupDrops    *obs.Counter // redeliveries suppressed
	crcRejects  *obs.Counter // garbage/corrupted frames dropped

	stop chan struct{}
	wg   sync.WaitGroup
}

type unacked struct {
	frame    []byte
	attempts int
	// sentOnce marks the frame as having reached the wire at least once
	// (it holds an in-flight slot); frames deferred by the in-flight cap
	// wait unsent for the retransmit loop to find a free slot.
	sentOnce bool
	// nextAt is when the frame is next due for (re)transmission.
	nextAt time.Time
	// backoff is the current retransmission delay, doubled on every
	// re-send up to the config cap.
	backoff time.Duration
}

// dedupWindow bounds the out-of-order set per source. A sender that gave
// up on a frame (bounded MaxAttempts, or a permanent Send failure) leaves
// a hole no retransmission will ever fill; without a bound that hole would
// pin the floor and grow the set by one entry per later message forever.
const dedupWindow = 4096

// dedupState tracks which sequence numbers from one source were delivered:
// everything at or below floor, plus the sparse out-of-order set above it.
// Advancing the floor prunes the set, so memory stays proportional to the
// reordering window rather than to the connection's lifetime.
type dedupState struct {
	floor uint64
	above map[uint64]bool
}

// advance pulls the floor over every contiguous delivered sequence, then —
// if an unfillable hole has let the sparse set outgrow the window — slides
// the floor to the oldest delivered sequence beyond the hole. A frame
// older than the window that still arrives afterwards would be delivered
// twice; with retransmissions every few tens of milliseconds, thousands of
// in-flight frames past a hole mean the hole is abandoned, not late.
func (st *dedupState) advance() {
	for st.above[st.floor+1] {
		st.floor++
		delete(st.above, st.floor)
	}
	if len(st.above) <= dedupWindow {
		return
	}
	oldest := uint64(0)
	for seq := range st.above {
		if oldest == 0 || seq < oldest {
			oldest = seq
		}
	}
	st.floor = oldest
	delete(st.above, oldest)
	for st.above[st.floor+1] {
		st.floor++
		delete(st.above, st.floor)
	}
}

// NewReliable wraps an open endpoint. The wrapper takes ownership: closing
// it closes the inner endpoint.
func NewReliable(inner Transport, cfg ReliableConfig) *ReliableEndpoint {
	h := fnv.New64a()
	h.Write([]byte(inner.Addr()))
	r := &ReliableEndpoint{
		inner:    inner,
		cfg:      cfg,
		q:        newQueue(),
		nextSeq:  make(map[string]uint64),
		pending:  make(map[string]map[uint64]*unacked),
		inflight: make(map[string]int),
		seen:     make(map[string]*dedupState),
		rng:      rand.New(rand.NewSource(int64(h.Sum64()))),
		stop:     make(chan struct{}),

		losses:      cLosses.Child(),
		retransmits: cRetransmits.Child(),
		dupDrops:    cDupDrops.Child(),
		crcRejects:  cCRCRejects.Child(),
	}
	r.wg.Add(2)
	go r.recvLoop()
	go r.retransmitLoop()
	return r
}

// encodeFrame builds [type][crc32 of the rest][seq][payload].
func encodeFrame(typ byte, seq uint64, payload []byte) []byte {
	body := make([]byte, 0, binary.MaxVarintLen64+len(payload))
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], seq)
	body = append(body, tmp[:n]...)
	body = append(body, payload...)
	frame := make([]byte, 0, 5+len(body))
	frame = append(frame, typ)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
	return append(frame, body...)
}

// decodeFrame validates the CRC and splits a frame into its parts.
func decodeFrame(data []byte) (typ byte, seq uint64, payload []byte, ok bool) {
	if len(data) < 6 {
		return 0, 0, nil, false
	}
	typ = data[0]
	if typ != frameData && typ != frameAck {
		return 0, 0, nil, false
	}
	body := data[5:]
	if binary.LittleEndian.Uint32(data[1:5]) != crc32.ChecksumIEEE(body) {
		return 0, 0, nil, false
	}
	seq, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, 0, nil, false
	}
	return typ, seq, body[n:], true
}

// Addr implements Transport.
func (r *ReliableEndpoint) Addr() string { return r.inner.Addr() }

// jitteredLocked spreads a delay ±20% so retransmissions to one
// destination decorrelate instead of arriving as synchronized bursts.
// Callers hold r.mu (the rng is not goroutine-safe).
func (r *ReliableEndpoint) jitteredLocked(d time.Duration) time.Duration {
	return d + time.Duration((r.rng.Float64()-0.5)*0.4*float64(d))
}

// Send implements Transport. The frame is tracked for retransmission until
// the destination acknowledges it; an inner-send error is reported to the
// caller with nothing tracked. When the destination already has MaxInflight
// unacknowledged frames on the wire the frame is queued unsent instead (the
// retransmit loop transmits it once a slot frees), so a dead peer cannot
// make every later Send burn bandwidth on an unbounded backlog.
//
// On the fast path, registration happens only after the first transmit
// succeeds — registering first would let a concurrent retransmit tick put a
// frame on the wire that Send then reports as failed, which would
// permanently unbalance the termination counters above. The benign converse
// race (the ack arriving before registration) only costs extra
// retransmissions: receivers re-ack every redelivery.
func (r *ReliableEndpoint) Send(to string, data []byte) error {
	if len(data) > MaxDatagram {
		return fmt.Errorf("transport: payload of %d bytes exceeds limit %d", len(data), MaxDatagram)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.nextSeq[to]++
	seq := r.nextSeq[to]
	if r.inflight[to] >= r.cfg.maxInflight() {
		if r.pending[to] == nil {
			r.pending[to] = make(map[uint64]*unacked)
		}
		r.pending[to][seq] = &unacked{frame: encodeFrame(frameData, seq, data)}
		r.mu.Unlock()
		cDeferrals.Inc()
		return nil
	}
	r.mu.Unlock()

	frame := encodeFrame(frameData, seq, data)
	if err := r.inner.Send(to, frame); err != nil {
		return err
	}
	r.mu.Lock()
	if r.pending[to] == nil {
		r.pending[to] = make(map[uint64]*unacked)
	}
	base := r.cfg.interval()
	r.pending[to][seq] = &unacked{
		frame:    frame,
		sentOnce: true,
		backoff:  base,
		nextAt:   time.Now().Add(r.jitteredLocked(base)),
	}
	r.inflight[to]++
	r.mu.Unlock()
	return nil
}

// Forget purges every trace of a destination: pending (sent and deferred)
// frames, the in-flight slot count, the outbound sequence counter and the
// inbound dedup window. Called when a peer is evicted so the endpoint stops
// retransmitting to a corpse and stops holding state that can never be
// reclaimed by acknowledgement. Returns how many pending frames were
// dropped.
func (r *ReliableEndpoint) Forget(addr string) int {
	r.mu.Lock()
	n := len(r.pending[addr])
	delete(r.pending, addr)
	delete(r.inflight, addr)
	delete(r.nextSeq, addr)
	delete(r.seen, addr)
	r.mu.Unlock()
	if n > 0 {
		cForgotten.Add(int64(n))
		obs.L().Info("purged transport state for evicted peer", "peer", addr, "frames", n)
	}
	return n
}

// Receive implements Transport.
func (r *ReliableEndpoint) Receive() <-chan InMsg { return r.q.out }

// ReceiveBatch implements Transport.
func (r *ReliableEndpoint) ReceiveBatch() <-chan []InMsg { return r.q.batches() }

// Reliability returns this endpoint's reliability counters.
func (r *ReliableEndpoint) Reliability() ReliabilityStats {
	return ReliabilityStats{
		Retransmits: r.retransmits.Value(),
		DupDrops:    r.dupDrops.Value(),
		CRCRejects:  r.crcRejects.Value(),
		Losses:      r.losses.Value(),
	}
}

// PendingFrames returns how many frames are awaiting acknowledgement.
func (r *ReliableEndpoint) PendingFrames() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.pending {
		n += len(m)
	}
	return n
}

// Close implements Transport. Idempotent; returns once both background
// goroutines are gone.
func (r *ReliableEndpoint) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	err := r.inner.Close()
	r.wg.Wait()
	return err
}

func (r *ReliableEndpoint) recvLoop() {
	defer r.wg.Done()
	for batch := range r.inner.ReceiveBatch() {
		for _, in := range batch {
			r.handleFrame(in)
		}
	}
	r.q.close()
}

// handleFrame consumes one raw datagram: an ack releases its pending frame, a
// data frame is acknowledged and, unless it is a redelivery, queued for the
// consumer.
func (r *ReliableEndpoint) handleFrame(in InMsg) {
	typ, seq, payload, ok := decodeFrame(in.Data)
	if !ok {
		r.crcRejects.Inc()
		return // garbage or corrupted: drop, sender will retransmit
	}
	switch typ {
	case frameAck:
		r.mu.Lock()
		if m := r.pending[in.From]; m != nil {
			if u, ok := m[seq]; ok {
				delete(m, seq)
				if u.sentOnce {
					r.inflight[in.From]--
				}
			}
		}
		r.mu.Unlock()
	case frameData:
		// Acknowledge even redeliveries: the first ack may have been
		// the datagram that got lost.
		_ = r.inner.Send(in.From, encodeFrame(frameAck, seq, nil))
		r.mu.Lock()
		st := r.seen[in.From]
		if st == nil {
			st = &dedupState{above: make(map[uint64]bool)}
			r.seen[in.From] = st
		}
		if seq <= st.floor || st.above[seq] {
			r.mu.Unlock()
			r.dupDrops.Inc()
			return // duplicate
		}
		st.above[seq] = true
		st.advance()
		r.mu.Unlock()
		r.q.push(InMsg{From: in.From, Data: payload})
	}
}

// retransmitLoop wakes a few times per base interval and walks the pending
// frames: deferred frames are transmitted when their destination has a free
// in-flight slot, and sent frames past their deadline are re-sent with
// their per-frame delay doubled (plus jitter) up to MaxBackoff — so a
// responsive peer sees a prompt first retransmission while a dead one
// converges to one frame per MaxBackoff instead of the whole backlog every
// tick.
func (r *ReliableEndpoint) retransmitLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.pollInterval())
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		type resend struct {
			to    string
			frame []byte
		}
		var due []resend
		var lost, retrans, backed int64
		var lostBy map[string]int64
		base := r.cfg.interval()
		maxBackoff := r.cfg.maxBackoff()
		now := time.Now()
		r.mu.Lock()
		for to, m := range r.pending {
			for seq, u := range m {
				if !u.sentOnce {
					// Deferred by the in-flight cap: transmit once a
					// slot frees up.
					if r.inflight[to] >= r.cfg.maxInflight() {
						continue
					}
					u.sentOnce = true
					u.backoff = base
					u.nextAt = now.Add(r.jitteredLocked(base))
					r.inflight[to]++
					due = append(due, resend{to: to, frame: u.frame})
					continue
				}
				if now.Before(u.nextAt) {
					continue
				}
				u.attempts++
				if r.cfg.MaxAttempts > 0 && u.attempts > r.cfg.MaxAttempts {
					delete(m, seq)
					r.inflight[to]--
					lost++
					if lostBy == nil {
						lostBy = make(map[string]int64)
					}
					lostBy[to]++
					continue
				}
				if u.backoff > base {
					backed++
				}
				u.backoff *= 2
				if u.backoff > maxBackoff {
					u.backoff = maxBackoff
				}
				u.nextAt = now.Add(r.jitteredLocked(u.backoff))
				due = append(due, resend{to: to, frame: u.frame})
				retrans++
			}
		}
		r.mu.Unlock()
		if lost > 0 {
			r.losses.Add(lost)
			for peer, n := range lostBy {
				obs.L().Warn("frames abandoned after max retransmissions",
					"peer", peer, "frames", n, "max_attempts", r.cfg.MaxAttempts)
			}
		}
		if retrans > 0 {
			r.retransmits.Add(retrans)
		}
		if backed > 0 {
			cBackoffs.Add(backed)
		}
		for _, d := range due {
			_ = r.inner.Send(d.to, d.frame)
		}
	}
}
