package apps

import (
	"testing"

	"secureblox/internal/core"
	"secureblox/internal/datalog"
)

// TestPlaintextsLeaveWithTheirTransaction: the plaintext aesencrypt reads and
// the one aesdecrypt computes are compared and decoded, and no stored row
// names them, so they leave the intern table with the transaction that
// computed them. After the hash join's fixpoint every text node p0 holds is
// named by a stored row, the empty text aside, and an -AES scheme holds its
// base scheme's texts and the AES keys of its secret rows, which HMAC holds
// as its own keys.
func TestPlaintextsLeaveWithTheirTransaction(t *testing.T) {
	held := map[string]int{}
	for _, name := range []string{"NoAuth", "NoAuth-AES", "HMAC", "HMAC-AES", "RSA", "RSA-AES", "RSA-batch", "RSA-batch-AES"} {
		p, err := core.ParsePolicyName(name)
		if err != nil {
			t.Fatal(err)
		}
		o := runRow(t, "hashjoin", smoke(5), 3, p, nil)
		if o.Wrong != nil {
			t.Fatalf("%s: %s: %v", name, o.Answer, o.Wrong)
		}
		ws := o.Cluster.Nodes[0].WS
		named := map[string]bool{"": true}
		for _, pred := range ws.Predicates() {
			for _, tp := range ws.Tuples(pred) {
				for _, v := range tp {
					if v.Kind != datalog.KindInt && v.Kind != datalog.KindBool {
						named[v.Str] = true
					}
				}
			}
		}
		if ws.Symbols() > len(named) {
			t.Errorf("%s: p0 holds %d texts, %d of them named by no stored row", name, ws.Symbols(), ws.Symbols()-len(named))
		}
		held[name] = ws.Symbols() - ws.Count("secret")
	}
	for _, base := range []string{"NoAuth", "HMAC", "RSA", "RSA-batch"} {
		if held[base+"-AES"] != held[base] {
			t.Errorf("p0 holds %d texts besides its secrets under %s-AES, %d under %s", held[base+"-AES"], base, held[base], base)
		}
	}
}
