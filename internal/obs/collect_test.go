package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSumPromFamilies: label sets collapse into one value per family,
// histogram suffixes stay distinct, garbage lines are skipped.
func TestSumPromFamilies(t *testing.T) {
	text := strings.Join([]string{
		"# HELP sbx_txns_total Committed workspace transactions.",
		"# TYPE sbx_txns_total counter",
		`sbx_txns_total{principal="p0"} 3`,
		`sbx_txns_total{principal="p1"} 4`,
		"sbx_go_goroutines 17",
		`sbx_txn_duration_seconds_bucket{le="0.001"} 5`,
		"sbx_txn_duration_seconds_sum 0.25",
		"sbx_txn_duration_seconds_count 7",
		"this line is noise",
		"",
	}, "\n")
	fam := SumPromFamilies(text)
	for name, want := range map[string]float64{
		"sbx_txns_total":                  7,
		"sbx_go_goroutines":               17,
		"sbx_txn_duration_seconds_bucket": 5,
		"sbx_txn_duration_seconds_sum":    0.25,
		"sbx_txn_duration_seconds_count":  7,
	} {
		if got := fam[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, ok := fam["this"]; ok {
		t.Error("garbage line parsed as a family")
	}
}

// TestScrapeNode drives the collector's fetch path against a debug mux:
// families summed, identity and state recovered from /healthz.
func TestScrapeNode(t *testing.T) {
	h := NewHealth()
	h.SetIdentity("fig5", "p1")
	for _, s := range []HealthState{StateJoining, StateReady, StateRunning} {
		if err := h.Advance(s); err != nil {
			t.Fatal(err)
		}
	}
	mux := http.NewServeMux()
	MountWith(mux, h)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	addr := strings.TrimPrefix(srv.URL, "http://")
	got := ScrapeNode(srv.Client(), addr)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.Principal != "p1" || got.Cluster != "fig5" || got.State != "running" {
		t.Fatalf("identity wrong: %+v", got)
	}
	if got.Counter("sbx_go_goroutines") <= 0 {
		t.Fatalf("runtime gauges missing: %v", got.Families["sbx_go_goroutines"])
	}

	bad := ScrapeNode(&http.Client{Timeout: 200 * time.Millisecond}, "127.0.0.1:1")
	if bad.Err == nil {
		t.Fatal("scrape of a dead address reported no error")
	}
}

// TestSpanDumpRoundTrip: ReadSpanDump reads what sbxnode -dump writes
// (a JSON span array), and SummarizeTraces ranks the merged result.
func TestSpanDumpRoundTrip(t *testing.T) {
	now := time.Now()
	spans := []Span{
		{Trace: 9, Hop: 0, Node: "a:1", Principal: "p0", Stage: StageFixpoint, Start: now, Dur: time.Millisecond},
		{Trace: 9, Hop: 1, Node: "b:1", Principal: "p1", Stage: StageFixpoint, Peer: "a:1", Start: now.Add(time.Millisecond)},
		{Trace: 4, Hop: 0, Node: "a:1", Principal: "p0", Stage: StageFixpoint, Start: now},
		{Trace: 0, Node: "a:1", Stage: StageDecode, Start: now}, // untraced: ignored by summaries
	}
	// Write the same JSON shape /debug/spans serves and sbxnode -dump writes.
	path := filepath.Join(t.TempDir(), "spans.json")
	data, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := ReadSpanDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) {
		t.Fatalf("read %d spans, want %d", len(got), len(spans))
	}
	sums := SummarizeTraces(got)
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2: %+v", len(sums), sums)
	}
	// Trace 9 spans two nodes, so it ranks first.
	if sums[0].Trace != 9 || sums[0].Nodes != 2 || sums[0].Spans != 2 || sums[0].Depth != 2 {
		t.Fatalf("top summary wrong: %+v", sums[0])
	}

	if _, err := ReadSpanDump(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing dump read without error")
	}
}

// TestWriteWaveASCII pins the tree rendering: branch glyphs, hop and span
// counts, per-stage latencies in pipeline order.
func TestWriteWaveASCII(t *testing.T) {
	now := time.Now()
	all := []Span{
		{Trace: 7, Hop: 0, Node: "a:1", Principal: "p0", Stage: StageFixpoint, Start: now, Dur: 2 * time.Millisecond},
		{Trace: 7, Hop: 0, Node: "a:1", Principal: "p0", Stage: StageShip, Peer: "b:1", Start: now.Add(time.Millisecond), Dur: 30 * time.Microsecond},
		{Trace: 7, Hop: 0, Node: "a:1", Principal: "p0", Stage: StageShip, Peer: "c:1", Start: now.Add(time.Millisecond), Dur: 30 * time.Microsecond},
		{Trace: 7, Hop: 1, Node: "b:1", Principal: "p1", Stage: StageDecode, Peer: "a:1", Start: now.Add(2 * time.Millisecond), Dur: 10 * time.Microsecond},
		{Trace: 7, Hop: 1, Node: "b:1", Principal: "p1", Stage: StageFixpoint, Peer: "a:1", Start: now.Add(2 * time.Millisecond), Dur: time.Millisecond},
		{Trace: 7, Hop: 1, Node: "c:1", Principal: "p2", Stage: StageFixpoint, Peer: "a:1", Start: now.Add(2 * time.Millisecond), Dur: time.Millisecond},
	}
	root := BuildWave(7, all)
	if root == nil {
		t.Fatal("BuildWave returned nil")
	}
	if root.SpanCount() != len(all) {
		t.Fatalf("tree holds %d spans, want %d", root.SpanCount(), len(all))
	}
	var sb strings.Builder
	WriteWaveASCII(&sb, root)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "p0 @a:1 hop 0 (3 spans)") {
		t.Errorf("root line: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "├─ ") || !strings.HasPrefix(lines[2], "└─ ") {
		t.Errorf("branch glyphs wrong:\n%s", out)
	}
	// Stage latencies render in pipeline order: decode before fixpoint.
	for _, l := range lines[1:] {
		if strings.Contains(l, "decode") && strings.Index(l, "decode") > strings.Index(l, "fixpoint") {
			t.Errorf("stages out of pipeline order: %q", l)
		}
	}
	if !strings.Contains(lines[0], "fixpoint 2.00ms") {
		t.Errorf("latency missing from root: %q", lines[0])
	}

	// Inbound group commit: the transaction that absorbed several datagrams
	// says how many; a datagram absorbed behind another wave says where its
	// own wave went on.
	merged := BuildWave(8, []Span{
		{Trace: 8, Hop: 0, Node: "a:1", Principal: "p0", Stage: StageFixpoint, Start: now, Dur: time.Millisecond},
		{Trace: 8, Hop: 1, Node: "b:1", Principal: "p1", Stage: StageDecode, Peer: "a:1", Start: now, Dur: time.Microsecond},
		{Trace: 8, Hop: 1, Node: "b:1", Principal: "p1", Stage: StageFixpoint, Peer: "a:1", Start: now, Dur: time.Millisecond, Absorbed: 5},
		{Trace: 8, Hop: 1, Node: "c:1", Principal: "p2", Stage: StageDecode, Peer: "a:1", Start: now, Dur: time.Microsecond, Into: 99},
	})
	sb.Reset()
	WriteWaveASCII(&sb, merged)
	lines = strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.HasSuffix(lines[1], "merged 5 datagrams") || !strings.HasSuffix(lines[2], "merged into trace 99") {
		t.Errorf("merge annotations missing:\n%s", sb.String())
	}
	if strings.Contains(lines[0], "merged") {
		t.Errorf("unmerged node annotated: %q", lines[0])
	}

	var empty strings.Builder
	WriteWaveASCII(&empty, nil)
	if !strings.Contains(empty.String(), "no spans") {
		t.Errorf("nil root rendering: %q", empty.String())
	}
}
