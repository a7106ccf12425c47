package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"secureblox/internal/obs"
)

// The reliability counters, aggregated across every endpoint of the process.
// Registered at init so the transport families render (at zero) on /metrics
// even on loss-free runs.
var (
	cRetransmits *obs.Counter
	cDupDrops    *obs.Counter
	cCRCRejects  *obs.Counter
	cBackoffs    *obs.Counter
	cDeferrals   *obs.Counter
	cForgotten   *obs.Counter
)

func init() {
	r := obs.Default()
	r.Help("sbx_transport_retransmits_total", "Data frames re-sent while awaiting acknowledgement.")
	r.Help("sbx_transport_dup_drops_total", "Redelivered frames suppressed by the receive dedup window.")
	r.Help("sbx_transport_crc_rejects_total", "Inbound datagrams dropped as garbage or CRC failures.")
	r.Help("sbx_transport_backoffs_total", "Retransmissions fired at a backed-off (beyond base) interval.")
	r.Help("sbx_transport_send_deferrals_total", "Sends queued unsent because the destination hit its in-flight cap.")
	r.Help("sbx_transport_forgotten_frames_total", "Pending frames purged by Forget after a peer was evicted.")
	cRetransmits = r.Counter("sbx_transport_retransmits_total", nil)
	cDupDrops = r.Counter("sbx_transport_dup_drops_total", nil)
	cCRCRejects = r.Counter("sbx_transport_crc_rejects_total", nil)
	cBackoffs = r.Counter("sbx_transport_backoffs_total", nil)
	cDeferrals = r.Counter("sbx_transport_send_deferrals_total", nil)
	cForgotten = r.Counter("sbx_transport_forgotten_frames_total", nil)
}

// Reliable-layer frame types. Distinctive bytes keep random garbage from
// parsing as a frame by accident (a CRC check backstops the rest).
const (
	frameData = 0x44 // 'D'
	frameAck  = 0x41 // 'A'
)

// FrameRoom is the framing the reliable layer adds to a datagram, as a
// trailer: the sequence number (a uvarint, its bytes reversed), a CRC32 of the
// datagram and the sequence number, and the type byte. A datagram sent with
// FrameRoom bytes of spare capacity is framed in place (Transport.Send).
const FrameRoom = binary.MaxVarintLen64 + 4 + 1

// The reliable layer's timing. A frame is first re-sent retransmitInterval
// after it went out; every re-send doubles its delay, up to maxBackoff, so an
// evicted-peer purge or a healed partition is noticed within a bounded delay.
// At most maxInflight unacknowledged frames per destination are on the wire;
// further sends wait unsent until slots free up, so a dead or partitioned
// peer stops consuming bandwidth in proportion to the backlog. The retransmit
// loop wakes every pollInterval to find due frames and free slots.
const (
	retransmitInterval = 50 * time.Millisecond
	maxBackoff         = 16 * retransmitInterval
	maxInflight        = 512
	pollInterval       = retransmitInterval / 4
)

// lower is the reliable layer's lower half, where its frames go out: the
// endpoint's socket, or the socket under a chaos engine. Send keeps nothing of
// frame once it returns — the layer builds every ack in one buffer — and
// closing it closes the socket.
type lower interface {
	Send(to string, frame []byte) error
	Close() error
}

// ReliableEndpoint is one UDP endpoint: its socket with message-level
// reliability on top. Every frame carries a per-destination sequence number
// and a CRC; the read loop acknowledges each data frame and deduplicates
// redeliveries, and the retransmit loop re-sends until acknowledged.
// Corrupted frames fail the CRC and are dropped, which turns garbling into
// loss and loss into latency — exactly what the termination-detection
// counters need to stay balanced over real UDP.
type ReliableEndpoint struct {
	addr string
	out  lower
	q    *queue

	mu       sync.Mutex
	nextSeq  map[string]uint64              // per-destination last used seq
	pending  map[string]map[uint64]*unacked // per-destination unacked frames
	inflight map[string]int                 // per-destination frames on the wire
	seen     map[string]*dedupState         // per-source delivery dedup
	rng      *rand.Rand                     // retransmit jitter (mu-guarded)
	closed   bool

	ack []byte // the read loop's: every ack is built here

	stop chan struct{}
	wg   sync.WaitGroup // the read loop and the retransmit loop
}

type unacked struct {
	frame []byte
	// sentOnce marks the frame as having reached the wire at least once
	// (it holds an in-flight slot); frames deferred by the in-flight cap
	// wait unsent for the retransmit loop to find a free slot.
	sentOnce bool
	// nextAt is when the frame is next due for (re)transmission.
	nextAt time.Time
	// backoff is the current retransmission delay, doubled on every
	// re-send up to maxBackoff.
	backoff time.Duration
}

// dedupWindow bounds the out-of-order set per source. A send that failed
// after taking its sequence number leaves a hole no retransmission will ever
// fill; without a bound that hole would pin the floor and grow the set by one
// entry per later message forever.
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

// newReliable builds the reliable layer of the endpoint at addr over out,
// which it owns. It starts no goroutine: the caller runs retransmitLoop and a
// read loop that hands every inbound datagram to handleFrame, both counted
// in wg.
func newReliable(addr string, out lower) *ReliableEndpoint {
	h := fnv.New64a()
	h.Write([]byte(addr))
	seed := h.Sum64()
	return &ReliableEndpoint{
		addr:     addr,
		out:      out,
		q:        newQueue(),
		nextSeq:  make(map[string]uint64),
		pending:  make(map[string]map[uint64]*unacked),
		inflight: make(map[string]int),
		seen:     make(map[string]*dedupState),
		rng:      rand.New(rand.NewPCG(seed, seed)),
		stop:     make(chan struct{}),
		ack:      make([]byte, 0, FrameRoom),
	}
}

// encodeFrame frames payload as [payload][seq][crc32][type]: the sequence
// number a uvarint with its bytes reversed, so that it reads back from the
// end, and the CRC over the payload and the sequence number. It frames in
// place, in payload's spare capacity, when that holds FrameRoom bytes, and
// otherwise in a copy.
func encodeFrame(payload []byte, typ byte, seq uint64) []byte {
	frame := payload
	if cap(frame)-len(frame) < FrameRoom {
		frame = make([]byte, len(payload), len(payload)+FrameRoom)
		copy(frame, payload)
	}
	frame = binary.AppendUvarint(frame, seq)
	slices.Reverse(frame[len(payload):])
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
	return append(frame, typ)
}

// decodeFrame validates the CRC and splits a frame into its parts; payload
// is a view of data.
func decodeFrame(data []byte) (typ byte, seq uint64, payload []byte, ok bool) {
	if len(data) < 6 {
		return 0, 0, nil, false
	}
	typ = data[len(data)-1]
	if typ != frameData && typ != frameAck {
		return 0, 0, nil, false
	}
	body := data[:len(data)-5]
	if binary.LittleEndian.Uint32(data[len(data)-5:]) != crc32.ChecksumIEEE(body) {
		return 0, 0, nil, false
	}
	var rev [binary.MaxVarintLen64]byte
	k := min(len(body), len(rev))
	for i := range k {
		rev[i] = body[len(body)-1-i]
	}
	seq, n := binary.Uvarint(rev[:k])
	if n <= 0 {
		return 0, 0, nil, false
	}
	return typ, seq, body[:len(body)-n], true
}

// Addr implements Transport.
func (r *ReliableEndpoint) Addr() string { return r.addr }

// jitteredLocked spreads a delay ±20% so retransmissions to one
// destination decorrelate instead of arriving as synchronized bursts.
// Callers hold r.mu (the rng is not goroutine-safe).
func (r *ReliableEndpoint) jitteredLocked(d time.Duration) time.Duration {
	return d + time.Duration((r.rng.Float64()-0.5)*0.4*float64(d))
}

// Send implements Transport. The frame is tracked for retransmission until
// the destination acknowledges it; a socket error is reported to the caller
// with nothing tracked. When the destination already has maxInflight
// unacknowledged frames on the wire the frame is queued unsent instead (the
// retransmit loop transmits it once a slot frees), so a dead peer cannot
// make every later Send burn bandwidth on an unbounded backlog. The frame is
// data itself, its trailer written into FrameRoom bytes of spare capacity,
// when data has them (encodeFrame): the layer keeps it until acknowledged.
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
	if r.inflight[to] >= maxInflight {
		if r.pending[to] == nil {
			r.pending[to] = make(map[uint64]*unacked)
		}
		r.pending[to][seq] = &unacked{frame: encodeFrame(data, frameData, seq)}
		r.mu.Unlock()
		cDeferrals.Inc()
		return nil
	}
	r.mu.Unlock()

	frame := encodeFrame(data, frameData, seq)
	if err := r.out.Send(to, frame); err != nil {
		return err
	}
	r.mu.Lock()
	if r.pending[to] == nil {
		r.pending[to] = make(map[uint64]*unacked)
	}
	r.pending[to][seq] = &unacked{
		frame:    frame,
		sentOnce: true,
		backoff:  retransmitInterval,
		nextAt:   time.Now().Add(r.jitteredLocked(retransmitInterval)),
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

// Close implements Transport. Idempotent; returns once the read loop and the
// retransmit loop are gone.
func (r *ReliableEndpoint) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	err := r.out.Close()
	r.wg.Wait()
	r.q.close()
	return err
}

// handleFrame consumes one inbound datagram from the given address, which it
// owns: an ack releases its pending frame, a data frame is acknowledged and,
// unless it is a redelivery, its payload — a view of the datagram, capped at
// its length — is queued for the consumer. Only the read loop calls it.
func (r *ReliableEndpoint) handleFrame(from string, datagram []byte) {
	typ, seq, payload, ok := decodeFrame(datagram)
	if !ok {
		cCRCRejects.Inc()
		return // garbage or corrupted: drop, sender will retransmit
	}
	switch typ {
	case frameAck:
		r.mu.Lock()
		if m := r.pending[from]; m != nil {
			if u, ok := m[seq]; ok {
				delete(m, seq)
				if u.sentOnce {
					r.inflight[from]--
				}
			}
		}
		r.mu.Unlock()
	case frameData:
		// Acknowledge even redeliveries: the first ack may have been
		// the datagram that got lost.
		r.ack = encodeFrame(r.ack[:0], frameAck, seq)
		_ = r.out.Send(from, r.ack)
		r.mu.Lock()
		st := r.seen[from]
		if st == nil {
			st = &dedupState{above: make(map[uint64]bool)}
			r.seen[from] = st
		}
		if seq <= st.floor || st.above[seq] {
			r.mu.Unlock()
			cDupDrops.Inc()
			return // duplicate
		}
		st.above[seq] = true
		st.advance()
		r.mu.Unlock()
		r.q.push(InMsg{From: from, Data: payload[:len(payload):len(payload)]})
	}
}

// retransmitLoop wakes every pollInterval and walks the pending frames:
// deferred frames are transmitted when their destination has a free
// in-flight slot, and sent frames past their deadline are re-sent with
// their per-frame delay doubled (plus jitter) up to maxBackoff — so a
// responsive peer sees a prompt first retransmission while a dead one
// converges to one frame per maxBackoff instead of the whole backlog every
// tick. A frame is re-sent until it is acknowledged or Forget drops it.
func (r *ReliableEndpoint) retransmitLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(pollInterval)
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
		var retrans, backed int64
		now := time.Now()
		r.mu.Lock()
		for to, m := range r.pending {
			for _, u := range m {
				if !u.sentOnce {
					// Deferred by the in-flight cap: transmit once a
					// slot frees up.
					if r.inflight[to] >= maxInflight {
						continue
					}
					u.sentOnce = true
					u.backoff = retransmitInterval
					u.nextAt = now.Add(r.jitteredLocked(retransmitInterval))
					r.inflight[to]++
					due = append(due, resend{to: to, frame: u.frame})
					continue
				}
				if now.Before(u.nextAt) {
					continue
				}
				if u.backoff > retransmitInterval {
					backed++
				}
				u.backoff = min(2*u.backoff, maxBackoff)
				u.nextAt = now.Add(r.jitteredLocked(u.backoff))
				due = append(due, resend{to: to, frame: u.frame})
				retrans++
			}
		}
		r.mu.Unlock()
		if retrans > 0 {
			cRetransmits.Add(retrans)
		}
		if backed > 0 {
			cBackoffs.Add(backed)
		}
		for _, d := range due {
			_ = r.out.Send(d.to, d.frame)
		}
	}
}
