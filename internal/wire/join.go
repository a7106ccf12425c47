package wire

import "fmt"

// Bootstrap control record types, carried — like probes and reports — as
// the single payload of a MsgControl message. They implement the cluster
// join handshake of internal/cluster: a joining node announces itself to a
// seed node, the seed answers with the full directory once the expected
// membership is complete, and runs a ready barrier before any node's first
// transaction. Type 4 (the seed's gossip of one newcomer to earlier joiners)
// is retired and rejected: the directory every joiner waits for already
// carries every member.
const (
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
	// budget and are removed from the live membership. Members holds the
	// evicted members.
	CtrlEvict CtrlType = 10
)

// MemberInfo is one cluster member as carried by the join records: its
// principal identity, its authoritative transport address (the bound one,
// never the config hint), and its public key in PKCS#1 DER (empty under
// policies that do not use public keys).
type MemberInfo struct {
	Principal string
	Addr      string
	PubKey    []byte
}

// Join is the wire record of the bootstrap handshake and the departure
// barrier. Cluster carries the deployment's name so records from an
// unrelated cluster sharing the network are rejected instead of corrupting
// membership. Members holds exactly one entry for CtrlJoin, CtrlReady and
// CtrlLeave (the announcing member), the full directory for CtrlDirectory,
// the evicted members for CtrlEvict, and is empty for CtrlGo and CtrlBye.
type Join struct {
	Type    CtrlType
	Cluster string
	Members []MemberInfo
}

// maxJoinString bounds principal and address lengths so a hostile record
// cannot demand absurd allocations (real values are tens of bytes).
const maxJoinString = 4096

// MaxJoinPubKey bounds the encoded public key length a join record carries
// (PKCS#1 DER for RSA-1024 is ~140 bytes; headroom admits larger keys).
const MaxJoinPubKey = 1 << 16

// EncodeJoin serializes a bootstrap record.
func EncodeJoin(j Join) []byte {
	buf := []byte{byte(j.Type)}
	buf = appendUvarint(buf, uint64(len(j.Cluster)))
	buf = append(buf, j.Cluster...)
	buf = appendUvarint(buf, uint64(len(j.Members)))
	for _, m := range j.Members {
		buf = appendUvarint(buf, uint64(len(m.Principal)))
		buf = append(buf, m.Principal...)
		buf = appendUvarint(buf, uint64(len(m.Addr)))
		buf = append(buf, m.Addr...)
		buf = appendUvarint(buf, uint64(len(m.PubKey)))
		buf = append(buf, m.PubKey...)
	}
	return buf
}

// readJoinBytes reads one length-prefixed field, rejecting lengths beyond
// the remaining buffer or the given bound before allocating.
func readJoinBytes(buf []byte, bound uint64) ([]byte, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if n > bound || uint64(len(buf)) < n {
		return nil, nil, ErrTruncated
	}
	return buf[:n], buf[n:], nil
}

// DecodeJoin parses a bootstrap record, rejecting unknown types and
// oversized fields. Records are decoded speculatively during bootstrap, so
// garbage must fail cleanly.
func DecodeJoin(buf []byte) (Join, error) {
	var j Join
	if len(buf) == 0 {
		return j, ErrTruncated
	}
	j.Type = CtrlType(buf[0])
	if j.Type < CtrlJoin || j.Type > CtrlEvict || j.Type == 4 {
		return j, fmt.Errorf("wire: bad join record type %d", buf[0])
	}
	buf = buf[1:]
	cl, buf, err := readJoinBytes(buf, maxJoinString)
	if err != nil {
		return j, err
	}
	j.Cluster = string(cl)
	cnt, buf, err := readUvarint(buf)
	if err != nil {
		return j, err
	}
	// Every member costs at least three length bytes; a count beyond the
	// remaining buffer is a lie.
	if cnt > uint64(len(buf)) {
		return j, ErrTruncated
	}
	if cnt > 0 {
		j.Members = make([]MemberInfo, 0, cnt)
	}
	for i := uint64(0); i < cnt; i++ {
		var m MemberInfo
		var b []byte
		if b, buf, err = readJoinBytes(buf, maxJoinString); err != nil {
			return j, err
		}
		m.Principal = string(b)
		if b, buf, err = readJoinBytes(buf, maxJoinString); err != nil {
			return j, err
		}
		m.Addr = string(b)
		if b, buf, err = readJoinBytes(buf, MaxJoinPubKey); err != nil {
			return j, err
		}
		if len(b) > 0 {
			m.PubKey = append([]byte(nil), b...)
		}
		j.Members = append(j.Members, m)
	}
	if len(buf) != 0 {
		return j, fmt.Errorf("wire: %d trailing bytes after join record", len(buf))
	}
	return j, nil
}
