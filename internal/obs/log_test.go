package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// attr returns a record's top-level attribute named key.
func attr(r slog.Record, key string) (v slog.Value, ok bool) {
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == key {
			v, ok = a.Value, true
		}
		return !ok
	})
	return v, ok
}

// TestLoggerRingRecordsAndBounds: records land in the ring oldest-first
// with their bound principal, and once the ring wraps, overwrites are
// counted as drops.
func TestLoggerRingRecordsAndBounds(t *testing.T) {
	logs.reset(0)
	defer logs.reset(0)

	L().With("principal", "p0").Info("hello", "k", 1)
	L().With("principal", "p1").Warn("trouble", "peer", "p2")
	recs := LogRecords()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Message != "hello" || principalOf(recs[0]) != "p0" || recs[0].Level != slog.LevelInfo {
		t.Fatalf("first record wrong: %+v", recs[0])
	}
	if v, ok := attr(recs[1], "peer"); !ok || v.String() != "p2" {
		t.Fatalf("attributes not kept: %+v", recs[1])
	}

	logs.reset(0)
	dropped := Default().CounterValue("sbx_log_dropped_total")
	for i := 0; i < logRingCap+5; i++ {
		L().Info("fill", "i", i)
	}
	if got := len(LogRecords()); got != logRingCap {
		t.Fatalf("ring holds %d records, want cap %d", got, logRingCap)
	}
	if d := logs.dropCount(); d != 5 {
		t.Fatalf("got %d drops, want 5", d)
	}
	if d := Default().CounterValue("sbx_log_dropped_total") - dropped; d != 5 {
		t.Fatalf("sbx_log_dropped_total moved by %d, want 5", d)
	}
}

// TestLoggerConcurrent hammers the ring handler from many goroutines while
// the mirror is on; run under -race this is the handler's data-race proof.
func TestLoggerConcurrent(t *testing.T) {
	logs.reset(0)
	defer logs.reset(0)

	var buf bytes.Buffer
	var mu sync.Mutex
	safe := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	SetMirror(safe, slog.LevelWarn)
	defer SetMirror(nil, 0)
	recorded := Default().CounterValue("sbx_log_events_total")

	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lg := L().With("principal", fmt.Sprintf("p%d", w))
			for i := 0; i < each; i++ {
				switch i % 3 {
				case 0:
					lg.Info("tick", "i", i)
				case 1:
					lg.Warn("tock", "i", i)
				default:
					_ = LogRecords()
				}
			}
		}(w)
	}
	wg.Wait()
	if len(LogRecords()) == 0 {
		t.Fatal("no records recorded")
	}
	want := int64(0) // every worker logs on two of each three steps
	for i := range each {
		if i%3 != 2 {
			want += workers
		}
	}
	if got := Default().CounterValue("sbx_log_events_total") - recorded; got != want {
		t.Errorf("sbx_log_events_total moved by %d, want %d", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(buf.String(), `level=WARN msg=tock principal=p`) {
		t.Fatalf("mirror missing warn lines:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), `msg=tick`) {
		t.Fatal("mirror leaked info lines below its level")
	}
}

// TestLogLevelNames: one parser reads -loglevel and ?level=, in any case
// and with surrounding space, aliases included; anything else is refused.
func TestLogLevelNames(t *testing.T) {
	for name, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, " warn ": slog.LevelWarn,
		"Warning": slog.LevelWarn, "error": slog.LevelError, "off": levelOff, "NONE": levelOff,
	} {
		if got, err := LogLevel(name); err != nil || got != want {
			t.Errorf("LogLevel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "loud", "WARN+1", "4"} {
		if _, err := LogLevel(bad); err == nil {
			t.Errorf("LogLevel(%q) accepted", bad)
		}
	}
}

// TestLogRingSlotIsSmall: the ring holds logRingCap slots from its first
// record on, so a slot stays a quarter of a slog.Record.
func TestLogRingSlotIsSmall(t *testing.T) {
	if got := unsafe.Sizeof(logEntry{}); got > 80 {
		t.Fatalf("a ring slot is %d B, want at most 80 (a slog.Record is %d)", got, unsafe.Sizeof(slog.Record{}))
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestLogsHandlerFilters: the /debug/logs endpoint serves the ring as JSON
// lines and applies level/principal/n filters.
func TestLogsHandlerFilters(t *testing.T) {
	logs.reset(0)
	defer logs.reset(0)
	L().With("principal", "p0").Info("a")
	L().With("principal", "p1").Warn("b")
	L().With("principal", "p0").Error("c")

	type line struct {
		Level     string `json:"level"`
		Msg       string `json:"msg"`
		Principal string `json:"principal"`
	}
	get := func(query string) []line {
		t.Helper()
		req := httptest.NewRequest("GET", "/debug/logs"+query, nil)
		rec := httptest.NewRecorder()
		LogsHandler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("GET %s: HTTP %d", query, rec.Code)
		}
		var out []line
		for sc := bufio.NewScanner(rec.Body); sc.Scan(); {
			var l line
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				t.Fatalf("GET %s: %v", query, err)
			}
			out = append(out, l)
		}
		return out
	}

	if ev := get(""); len(ev) != 3 || ev[0] != (line{"INFO", "a", "p0"}) {
		t.Fatalf("unfiltered: %+v", ev)
	}
	for _, q := range []string{"?level=warn", "?level=WARN", "?level=%20warning%20"} {
		if ev := get(q); len(ev) != 2 || ev[0].Msg != "b" {
			t.Fatalf("level filter %s: %+v", q, ev)
		}
	}
	for _, q := range []string{"?level=off", "?level=none"} {
		if ev := get(q); len(ev) != 0 {
			t.Fatalf("level filter %s: %+v", q, ev)
		}
	}
	if ev := get("?principal=p0"); len(ev) != 2 || ev[1].Msg != "c" {
		t.Fatalf("principal filter: %+v", ev)
	}
	if ev := get("?n=1"); len(ev) != 1 || ev[0].Msg != "c" {
		t.Fatalf("n filter: %+v", ev)
	}
	for _, bad := range []string{"?level=bogus", "?level=WARN+1", "?n=-1"} {
		rec := httptest.NewRecorder()
		LogsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/logs"+bad, nil))
		if rec.Code != 400 {
			t.Fatalf("%s: HTTP %d, want 400", bad, rec.Code)
		}
	}
}
