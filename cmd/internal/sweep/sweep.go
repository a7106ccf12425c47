// Package sweep holds what the figure-sweep CLIs (cmd/pathvector and
// cmd/hashjoin) share besides their flags.
package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"secureblox/internal/obs"
	"secureblox/internal/transport"
)

// UDPDiag renders the reliable layer's process-wide counters for failure
// output when the sweep runs over UDP — a stall with exploding retransmits
// is a very different bug from a silent link.
func UDPDiag(mode string) string {
	if mode != "udp" {
		return ""
	}
	return " [transport: " + transport.ReliabilityTotals().String() + "]"
}

// ParseSizes parses a comma-separated list of experiment sizes.
func ParseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// ServeDebug serves /metrics and /debug/spans on addr while the named sweep
// runs and returns the function that stops the server; an empty addr serves
// nothing.
func ServeDebug(addr, name string) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	bound, stop, err := obs.ServeDebug(addr)
	if err != nil {
		return nil, err
	}
	// The sweep has no cluster lifecycle: it is running the moment the
	// server is up, so /readyz answers 200 for the whole run.
	h := obs.DefaultHealth()
	h.SetIdentity(name+"-sweep", name)
	_ = h.Advance(obs.StateRunning)
	fmt.Printf("# observability endpoints on http://%s/metrics\n", bound)
	return stop, nil
}
