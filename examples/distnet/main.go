// Distnet: a SecureBlox cluster exchanging facts over REAL UDP — the
// paper's deployment mode (§5.1), run through the same transport-agnostic
// cluster driver the benchmarks use. The only difference from a simulated
// run is the transport.Network handed to core.NewCluster: endpoints bind
// loopback UDP ports (with the reliable ack/retransmit layer underneath),
// the principal directory carries the real bound addresses, and
// WaitFixpoint observes quiescence via the wire-level termination-detection
// protocol — no shared in-process state of any kind.
package main

import (
	"fmt"
	"log"

	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/transport"
)

// Each node says its greeting to every other principal; the import rule
// files received greetings into the local inbox.
const program = `
	greeting(G) -> string(G).
	inbox(G) -> string(G).
	exportable('greeting).

	says['greeting](self[], U, G) <- greeting(G), principal(U), U != self[].
	inbox(G) <- says['greeting](U, self[], G).
`

func main() {
	c, err := core.NewCluster(core.ClusterConfig{
		N:      2,
		Policy: core.PolicyConfig{Auth: core.AuthHMAC, Delegation: core.DelegateNone},
		Query:  program,
		Seed:   1,
		Net:    transport.NewUDPNetwork(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Stop()

	c.Start()
	c.AssertAt(0, []engine.Fact{
		{Pred: "greeting", Tuple: datalog.Tuple{datalog.String_("hello bob, over UDP")}},
	})
	c.WaitFixpoint()

	if v := c.Violations(); len(v) != 0 {
		log.Fatalf("violations: %v", v)
	}
	for _, t := range c.Query(1, "inbox") {
		fmt.Printf("node 1 (%s) received: %s\n", c.Addrs[1], t[0].Str)
	}
	fmt.Printf("node 0 (%s) shipped %d HMAC-signed message(s), %d bytes, over real UDP\n",
		c.Addrs[0], c.Nodes[0].MsgsSent(), c.Nodes[0].BytesSent())
	fmt.Println("fixpoint was detected by counting-wave probes on the same sockets.")
}
