package wire

import "fmt"

// CtrlType names one termination-detection control record.
type CtrlType byte

// Control record types.
const (
	// CtrlProbe asks a node for a counter snapshot for one wave.
	CtrlProbe CtrlType = 1
	// CtrlReport answers a probe with the node's local snapshot.
	CtrlReport CtrlType = 2
)

// Control is the wire record of the distributed termination-detection
// protocol (Mattern's counting-wave method): the detector broadcasts probes
// carrying a wave number, and each node answers with a report holding its
// monotone per-peer application-message counters and whether it has queued
// work. Two consecutive waves that observe identical, balanced counters and
// no active node prove global quiescence without any shared state.
//
// One layout serves probes and reports: type byte, uvarint wave, active
// byte (0/1), uvarint peer count, then per peer uvarint address length,
// address, uvarint sent, uvarint recv. A probe is inactive with no peers.
type Control struct {
	Type CtrlType
	// Wave is the probe/report wave number; reports echo the probe's wave
	// so late answers from earlier waves can be discarded.
	Wave uint64
	// Active reports whether the node held unprocessed local work at
	// snapshot time.
	Active bool
	// Peers holds the node's counters, one cell per remote address it has
	// exchanged application messages with; totals are sums over the cells.
	// Per peer rather than per node because after a peer is evicted mid-run
	// the wave sum must exclude message pairs involving it or the counters
	// could never balance again (the dead peer's answers are gone forever).
	Peers []PeerCount
}

// PeerCount is one cell of a report: the node's counters against one peer.
type PeerCount struct {
	// Addr is the remote transport address the counts are against.
	Addr string
	// Sent and Recv are cumulative counts of application messages shipped
	// to and fully processed from that address.
	Sent uint64
	Recv uint64
}

// maxCtrlPeerAddr bounds the address length a peer-count entry may carry
// (real addresses are tens of bytes).
const maxCtrlPeerAddr = 4096

// EncodeControl serializes a control record.
func EncodeControl(c Control) []byte {
	buf := []byte{byte(c.Type)}
	buf = appendUvarint(buf, c.Wave)
	if c.Active {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendUvarint(buf, uint64(len(c.Peers)))
	for _, p := range c.Peers {
		buf = appendUvarint(buf, uint64(len(p.Addr)))
		buf = append(buf, p.Addr...)
		buf = appendUvarint(buf, p.Sent)
		buf = appendUvarint(buf, p.Recv)
	}
	return buf
}

// DecodeControl parses a control record.
func DecodeControl(buf []byte) (Control, error) {
	var c Control
	if len(buf) == 0 {
		return c, ErrTruncated
	}
	c.Type = CtrlType(buf[0])
	if c.Type != CtrlProbe && c.Type != CtrlReport {
		return c, fmt.Errorf("wire: bad control type %d", buf[0])
	}
	buf = buf[1:]
	var err error
	if c.Wave, buf, err = readUvarint(buf); err != nil {
		return c, err
	}
	if len(buf) == 0 {
		return c, ErrTruncated
	}
	if buf[0] > 1 {
		return c, fmt.Errorf("wire: bad control active byte %d", buf[0])
	}
	c.Active = buf[0] == 1
	cnt, buf, err := readUvarint(buf[1:])
	if err != nil {
		return c, err
	}
	// Every entry costs at least three bytes; a count beyond the remaining
	// buffer is a lie.
	if cnt > uint64(len(buf)) {
		return c, ErrTruncated
	}
	if cnt > 0 {
		c.Peers = make([]PeerCount, 0, cnt)
	}
	for i := uint64(0); i < cnt; i++ {
		var p PeerCount
		var n uint64
		if n, buf, err = readUvarint(buf); err != nil {
			return c, err
		}
		if n > maxCtrlPeerAddr || uint64(len(buf)) < n {
			return c, ErrTruncated
		}
		p.Addr = string(buf[:n])
		buf = buf[n:]
		if p.Sent, buf, err = readUvarint(buf); err != nil {
			return c, err
		}
		if p.Recv, buf, err = readUvarint(buf); err != nil {
			return c, err
		}
		c.Peers = append(c.Peers, p)
	}
	if len(buf) != 0 {
		return c, fmt.Errorf("wire: %d trailing bytes after control record", len(buf))
	}
	return c, nil
}
