package apps

import (
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"secureblox/internal/core"
	"secureblox/internal/obs"
)

// metricsTypes is the sorted "# TYPE" list of /metrics after one RSA-batch
// path-vector run, as rendered at the commit before the counters moved into
// child series of the registry (PR 20). `sbx top`, cmd/sbxnode's deployment
// tests and README's metric table name these families: a family that is
// renamed, retyped, dropped or added must show up as a reviewed change to this
// list (and to README, which TestReadmeMetricTable holds to it).
const metricsTypes = `# TYPE sbx_batch_group_envelopes histogram
# TYPE sbx_bytes_recv_total counter
# TYPE sbx_bytes_sent_total counter
# TYPE sbx_cluster_evictions_total counter
# TYPE sbx_detection_lag_seconds histogram
# TYPE sbx_detector_waves_total counter
# TYPE sbx_engine_derivations_total counter
# TYPE sbx_engine_fixpoint_rounds_total counter
# TYPE sbx_engine_fullscan_fallbacks_total counter
# TYPE sbx_engine_index_probes_total counter
# TYPE sbx_engine_leading_scans_total counter
# TYPE sbx_engine_tuples_scanned_total counter
# TYPE sbx_go_gc_pause_seconds_total gauge
# TYPE sbx_go_gcs_total gauge
# TYPE sbx_go_goroutines gauge
# TYPE sbx_go_heap_alloc_bytes gauge
# TYPE sbx_go_heap_sys_bytes gauge
# TYPE sbx_inbound_run_fallbacks_total counter
# TYPE sbx_inbound_run_messages histogram
# TYPE sbx_log_dropped_total counter
# TYPE sbx_log_events_total counter
# TYPE sbx_msgs_recv_total counter
# TYPE sbx_msgs_sent_total counter
# TYPE sbx_rsa_sign_ops_total counter
# TYPE sbx_rsa_verify_ops_total counter
# TYPE sbx_signpool_hits_total counter
# TYPE sbx_signpool_misses_total counter
# TYPE sbx_spans_dropped_total counter
# TYPE sbx_transport_backoffs_total counter
# TYPE sbx_transport_crc_rejects_total counter
# TYPE sbx_transport_dup_drops_total counter
# TYPE sbx_transport_forgotten_frames_total counter
# TYPE sbx_transport_retransmits_total counter
# TYPE sbx_transport_send_deferrals_total counter
# TYPE sbx_txn_duration_seconds histogram
# TYPE sbx_txns_total counter
# TYPE sbx_verifypool_hits_total counter
# TYPE sbx_verifypool_misses_total counter
# TYPE sbx_violations_total counter
`

func TestMetricsEndpointShape(t *testing.T) {
	runRow(t, "pathvector", pv(3, 2), 3, core.PolicyConfig{Auth: core.AuthRSA, BatchSign: true}, nil).Cluster.Stop()
	var types []string
	for _, line := range strings.Split(obs.Default().Render(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	sort.Strings(types)
	if got := strings.Join(types, "\n") + "\n"; got != metricsTypes {
		t.Errorf("/metrics families changed.\n got:\n%s\nwant:\n%s", got, metricsTypes)
	}
}

// unrendered are the families README documents that a three-node memnet run
// cannot render: chaos faults exist only under a -chaos plan.
var unrendered = []string{"sbx_chaos_faults_total"}

// TestReadmeMetricTable: the family table under README's Observability
// heading names exactly the golden list's families plus the unrendered ones.
func TestReadmeMetricTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Observability\n")
	var table []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			table = append(table, line)
		} else if len(table) > 0 {
			break
		}
	}
	var documented []string
	for _, m := range regexp.MustCompile("`(sbx_[a-z_]+)`").FindAllStringSubmatch(strings.Join(table, "\n"), -1) {
		documented = append(documented, m[1])
	}
	want := slices.Clone(unrendered)
	for _, line := range strings.Split(strings.TrimSpace(metricsTypes), "\n") {
		want = append(want, strings.Fields(line)[2])
	}
	for _, f := range want {
		if !slices.Contains(documented, f) {
			t.Errorf("README's metric table lacks %s", f)
		}
	}
	for _, f := range documented {
		if !slices.Contains(want, f) {
			t.Errorf("README's metric table names %s, which the registry does not render", f)
		}
	}
}
