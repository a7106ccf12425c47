package wire

import (
	"errors"
	"fmt"
)

// CtrlType names one control record: a termination-detection probe or
// report, or one step of the cluster runtime's barriers and eviction gossip.
type CtrlType byte

// Control record types. Type 4 names no record and decodes as unknown.
const (
	// CtrlProbe asks a node for a counter snapshot for one wave.
	CtrlProbe CtrlType = 1
	// CtrlReport answers a probe with the node's local snapshot.
	CtrlReport CtrlType = 2
	// CtrlJoin announces a joining node (principal, bound address, public
	// key) to the seed.
	CtrlJoin CtrlType = 3
	// CtrlDirectory carries the full membership (every principal, its
	// authoritative transport address, and its public key) from the seed to
	// a joined node.
	CtrlDirectory CtrlType = 5
	// CtrlReady tells the seed a member has installed the directory and
	// built its workspace; part of the pre-transaction ready barrier.
	CtrlReady CtrlType = 6
	// CtrlGo releases the ready barrier: every member is ready, start
	// transacting.
	CtrlGo CtrlType = 7
	// CtrlLeave tells the seed a member has proven the distributed
	// fixpoint and reported its results; part of the departure barrier.
	CtrlLeave CtrlType = 8
	// CtrlBye releases the departure barrier: every member is done, so
	// nobody still needs this node's termination-probe answers and it may
	// exit. Without the barrier, the first process to prove quiescence
	// would vanish while slower peers' detectors still probe it.
	CtrlBye CtrlType = 9
	// CtrlEvict gossips a directory delta under the "evict" failure
	// policy: the named members exhausted a survivor's unresponsiveness
	// budget and are removed from the live membership.
	CtrlEvict CtrlType = 10
)

// Control is the one record a MsgControl datagram carries. Probes and
// reports run the distributed termination detection (Mattern's
// counting-wave method): the detector broadcasts probes carrying a wave
// number, and each node answers with a report holding its monotone per-peer
// application-message counters and whether it has queued work. Two
// consecutive waves that observe identical, balanced counters and no active
// node prove global quiescence without any shared state. The other types
// run the cluster runtime's join, ready and departure barriers and its
// eviction gossip.
//
// One layout serves every type: type byte; cluster name (uvarint length,
// bytes); uvarint wave; active byte (0/1); uvarint peer count, then per
// peer its address (uvarint length, bytes), uvarint sent, uvarint recv;
// uvarint member count, then per member its principal, address and public
// key (each a uvarint length and bytes). A field a type does not use is
// zero and costs one byte.
type Control struct {
	Type CtrlType
	// Cluster names the deployment on barrier and eviction records, so
	// records from an unrelated cluster sharing the network are rejected
	// instead of corrupting membership. Probes and reports leave it empty.
	Cluster string
	// Wave is the probe/report wave number; reports echo the probe's wave
	// so late answers from earlier waves can be discarded.
	Wave uint64
	// Active reports whether the node held unprocessed local work at
	// snapshot time.
	Active bool
	// Peers holds a report's counters, one cell per remote address the node
	// has exchanged application messages with; totals are sums over the
	// cells. Per peer rather than per node because after a peer is evicted
	// mid-run the wave sum must exclude message pairs involving it or the
	// counters could never balance again (the dead peer's answers are gone
	// forever).
	Peers []PeerCount
	// Members holds exactly one entry for CtrlJoin, CtrlReady and CtrlLeave
	// (the announcing member), the full directory for CtrlDirectory and the
	// evicted members for CtrlEvict.
	Members []MemberInfo
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

// MemberInfo is one cluster member as a control record carries it: its
// principal identity (never empty), its authoritative transport address
// (the bound one, never the config hint), and its public key in PKCS#1 DER
// (empty under policies that do not use public keys).
type MemberInfo struct {
	Principal string
	Addr      string
	PubKey    []byte
}

// maxCtrlString bounds the cluster name, addresses and principals a record
// may carry (real ones are tens of bytes); maxCtrlPubKey bounds a member's
// public key (PKCS#1 DER for RSA-1024 is ~140 bytes; headroom admits larger
// keys).
const (
	maxCtrlString = 4096
	maxCtrlPubKey = 1 << 16
)

// EncodeControl serializes a control record.
func EncodeControl(c Control) []byte {
	buf := []byte{byte(c.Type)}
	buf = appendField(buf, c.Cluster)
	buf = appendUvarint(buf, c.Wave)
	if c.Active {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendUvarint(buf, uint64(len(c.Peers)))
	for _, p := range c.Peers {
		buf = appendField(buf, p.Addr)
		buf = appendUvarint(buf, p.Sent)
		buf = appendUvarint(buf, p.Recv)
	}
	buf = appendUvarint(buf, uint64(len(c.Members)))
	for _, m := range c.Members {
		buf = appendField(buf, m.Principal)
		buf = appendField(buf, m.Addr)
		buf = appendField(buf, m.PubKey)
	}
	return buf
}

func appendField[T string | []byte](buf []byte, f T) []byte {
	return append(appendUvarint(buf, uint64(len(f))), f...)
}

// ControlMessage wraps a control record in the MsgControl envelope sent
// from the given address. The datagram is capped at its length: a probe or a
// barrier record goes to several peers as one buffer, and a transport that
// frames a datagram in its spare capacity must find none there
// (transport.Transport.Send).
func ControlMessage(from string, c Control) []byte {
	rec := EncodeControl(c)
	m := Message{Kind: MsgControl, From: from, Run: Run{N: 1}}
	buf := AppendRun(AppendHeader(make([]byte, 0, HeaderLen(m)+fieldLen(len(rec))), m), rec)
	return buf[:len(buf):len(buf)]
}

var errNotControl = errors.New("wire: not a control message")

// ReadControl decodes the control record a datagram carries: a MsgControl
// message whose one payload DecodeControl accepts.
func ReadControl(datagram []byte) (Control, error) {
	m, err := DecodeMessage(datagram)
	if err != nil {
		return Control{}, err
	}
	if m.Kind != MsgControl || m.Run.N != 1 {
		return Control{}, errNotControl
	}
	return DecodeControl(m.Run.Next())
}

// readBounded reads one length-prefixed field of at most bound bytes.
func readBounded(buf []byte, bound int) ([]byte, []byte, error) {
	b, rest, err := readField(buf)
	if err == nil && len(b) > bound {
		err = ErrTruncated
	}
	return b, rest, err
}

// DecodeControl parses a control record, rejecting unknown types, oversized
// fields and counts the buffer cannot hold. Every byte of it comes off a
// socket anyone can reach, so garbage must fail cleanly.
func DecodeControl(buf []byte) (Control, error) {
	var c Control
	if len(buf) == 0 {
		return c, ErrTruncated
	}
	c.Type = CtrlType(buf[0])
	switch c.Type {
	case CtrlProbe, CtrlReport, CtrlJoin, CtrlDirectory, CtrlReady, CtrlGo, CtrlLeave, CtrlBye, CtrlEvict:
	default:
		return c, fmt.Errorf("wire: unknown control type %d", buf[0])
	}
	cl, buf, err := readBounded(buf[1:], maxCtrlString)
	if err != nil {
		return c, err
	}
	c.Cluster = string(cl)
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
	// A peer entry costs at least three bytes; a count beyond a third of the
	// remaining buffer is a lie.
	if cnt > uint64(len(buf))/3 {
		return c, ErrTruncated
	}
	if cnt > 0 {
		c.Peers = make([]PeerCount, 0, cnt)
	}
	for i := uint64(0); i < cnt; i++ {
		var p PeerCount
		var b []byte
		if b, buf, err = readBounded(buf, maxCtrlString); err != nil {
			return c, err
		}
		p.Addr = string(b)
		if p.Sent, buf, err = readUvarint(buf); err != nil {
			return c, err
		}
		if p.Recv, buf, err = readUvarint(buf); err != nil {
			return c, err
		}
		c.Peers = append(c.Peers, p)
	}
	if cnt, buf, err = readUvarint(buf); err != nil {
		return c, err
	}
	// A member entry costs at least four bytes (it names its principal).
	if cnt > uint64(len(buf))/4 {
		return c, ErrTruncated
	}
	if cnt > 0 {
		c.Members = make([]MemberInfo, 0, cnt)
	}
	for i := uint64(0); i < cnt; i++ {
		var m MemberInfo
		var b []byte
		if b, buf, err = readBounded(buf, maxCtrlString); err != nil {
			return c, err
		}
		if len(b) == 0 {
			return c, errors.New("wire: control member without a principal")
		}
		m.Principal = string(b)
		if b, buf, err = readBounded(buf, maxCtrlString); err != nil {
			return c, err
		}
		m.Addr = string(b)
		if b, buf, err = readBounded(buf, maxCtrlPubKey); err != nil {
			return c, err
		}
		if len(b) > 0 {
			m.PubKey = append([]byte(nil), b...)
		}
		c.Members = append(c.Members, m)
	}
	if len(buf) != 0 {
		return c, fmt.Errorf("wire: %d trailing bytes after control record", len(buf))
	}
	return c, nil
}
