package apps

import (
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"secureblox/internal/core"
	"secureblox/internal/datalog"
)

// noAuthPayloadHex is the smallest payload node p0 ships in the hash join of
// TestSignaturesStoredOnlyWhereChecked under NoAuth: predicate, empty tag,
// values. The wire format does not depend on what the policy stores.
const noAuthPayloadHex = "0261320002010001e0c8a1e101"

// TestSignaturesStoredOnlyWhereChecked: a scheme that verifies no per-tuple
// signature (NoAuth, RSA-batch, with or without AES) stores no sig row on any
// node, sender or receiver; a scheme that does (HMAC, RSA) keeps the sig row
// of every said fact a node imported, which its verification constraint
// read. Under NoAuth the payload on the wire is pinned byte for byte.
func TestSignaturesStoredOnlyWhereChecked(t *testing.T) {
	schemes := []core.PolicyConfig{
		{},
		{Encrypt: true},
		{Auth: core.AuthRSA, BatchSign: true},
		{Auth: core.AuthRSA, BatchSign: true, Encrypt: true},
		{Auth: core.AuthHMAC},
		{Auth: core.AuthRSA},
	}
	for _, w := range Workloads {
		if w.Name != "pathvector" && w.Name != "hashjoin" {
			continue
		}
		for _, p := range schemes {
			t.Run(w.Name+"/"+p.Name(), func(t *testing.T) {
				out := runRow(t, w.Name, smoke(3), 4, p, nil)
				c := out.Cluster
				if out.Wrong != nil {
					t.Fatal(out.Wrong)
				}
				signed := p.Auth == core.AuthHMAC || p.Auth == core.AuthRSA && !p.BatchSign
				imported := 0
				for i, n := range c.Nodes {
					for _, pred := range n.WS.Predicates() {
						base, ok := strings.CutPrefix(pred, "says$")
						if !signed {
							if strings.HasPrefix(pred, "sig$") && n.WS.Count(pred) != 0 {
								t.Errorf("node %d holds %d %s rows", i, n.WS.Count(pred), pred)
							}
							continue
						}
						if !ok {
							continue
						}
						sigs := map[string]bool{}
						for _, tp := range c.Query(i, "sig$"+base) {
							sigs[tp[:len(tp)-1].String()] = true
						}
						for _, tp := range c.Query(i, pred) {
							if tp[1].Str != n.Principal || tp[0].Str == n.Principal {
								continue
							}
							imported++
							if !sigs[tp.String()] {
								t.Errorf("node %d imported %s%s without its sig row", i, pred, tp)
							}
						}
					}
				}
				if signed && imported == 0 {
					t.Error("no node imported a said fact")
				}
				if w.Name == "hashjoin" && p == (core.PolicyConfig{}) {
					if got := smallestShipped(c.Addrs[0], c.Query(0, "export")); got != noAuthPayloadHex {
						t.Errorf("NoAuth payload changed:\n got %s\nwant %s", got, noAuthPayloadHex)
					}
				}
			})
		}
	}
}

// smallestShipped returns, in hex, the smallest payload of the export rows
// that originate at addr.
func smallestShipped(addr string, exports []datalog.Tuple) string {
	var pkts []string
	for _, tp := range exports {
		if tp[1].Str == addr && tp[0].Str != addr {
			pkts = append(pkts, hex.EncodeToString(tp[2].Bytes()))
		}
	}
	if len(pkts) == 0 {
		return ""
	}
	return slices.Min(pkts)
}
