package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"secureblox/internal/obs"
)

// TestDebugEndpointServesMetricsAndSpans: the -debugaddr server mounts the
// obs registry's Prometheus endpoint and the wave-trace span dump. The key
// families are registered at package init across the subsystems, so they
// must render (at zero) even on a node that has processed nothing.
func TestDebugEndpointServesMetricsAndSpans(t *testing.T) {
	addr, stop, err := obs.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"sbx_engine_index_probes_total",
		"sbx_engine_fixpoint_rounds_total",
		"sbx_rsa_sign_ops_total",
		"sbx_rsa_verify_ops_total",
		"sbx_transport_retransmits_total",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}

	obs.RecordSpan(obs.Span{Trace: 42, Node: "here", Stage: obs.StageFixpoint})
	sresp, err := http.Get("http://" + addr + "/debug/spans?trace=42")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var spans []obs.Span
	if err := json.NewDecoder(sresp.Body).Decode(&spans); err != nil {
		t.Fatalf("/debug/spans is not a JSON span list: %v", err)
	}
	found := false
	for _, s := range spans {
		if s.Trace == 42 && s.Node == "here" {
			found = true
		}
	}
	if !found {
		t.Errorf("/debug/spans?trace=42 did not return the recorded span")
	}

	// /metrics is the only counter surface: nothing is mounted at /debug/vars.
	vresp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	if vresp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars status = %d, want 404", vresp.StatusCode)
	}
}
