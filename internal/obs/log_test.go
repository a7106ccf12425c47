package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestLoggerRingRecordsAndBounds: events land in the ring oldest-first,
// and once the ring wraps, overwrites are counted as drops.
func TestLoggerRingRecordsAndBounds(t *testing.T) {
	l := L()
	l.ResetEvents()
	defer l.ResetEvents()

	l.With("p0").Info("hello", "k", 1)
	l.With("p1").Warn("trouble", "peer", "p2")
	ev := l.Events()
	if len(ev) != 2 {
		t.Fatalf("got %d events, want 2", len(ev))
	}
	if ev[0].Msg != "hello" || ev[0].Principal != "p0" || ev[0].Level != "info" {
		t.Fatalf("first event wrong: %+v", ev[0])
	}
	if v, ok := ev[1].Fields["peer"]; !ok || v != "p2" {
		t.Fatalf("fields not folded: %+v", ev[1].Fields)
	}

	l.ResetEvents()
	cap := logRingCap
	for i := 0; i < cap+5; i++ {
		l.Info("fill", "i", i)
	}
	if got := len(l.Events()); got != cap {
		t.Fatalf("ring holds %d events, want cap %d", got, cap)
	}
	if d := l.EventDrops(); d != 5 {
		t.Fatalf("got %d drops, want 5", d)
	}
}

// TestLoggerConcurrent hammers the ring from many goroutines; run under
// -race this is the logger's data-race proof.
func TestLoggerConcurrent(t *testing.T) {
	l := L()
	l.ResetEvents()
	defer l.ResetEvents()

	var buf bytes.Buffer
	var mu sync.Mutex
	safe := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	l.SetMirror(safe, LevelWarn)
	defer l.SetMirror(nil, LevelOff)

	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lg := l.With(fmt.Sprintf("p%d", w))
			for i := 0; i < each; i++ {
				switch i % 3 {
				case 0:
					lg.Info("tick", "i", i)
				case 1:
					lg.Warn("tock", "i", i)
				default:
					_ = lg.Events()
				}
			}
		}(w)
	}
	wg.Wait()
	if len(l.Events()) == 0 {
		t.Fatal("no events recorded")
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(buf.String(), `msg="tock"`) {
		t.Fatalf("mirror missing warn lines:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), `msg="tick"`) {
		t.Fatal("mirror leaked info lines below its level")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestMirrorLineFormat pins the logfmt mirror format the smoke scripts
// grep: level, principal, quoted msg, sorted fields.
func TestMirrorLineFormat(t *testing.T) {
	l := L()
	l.ResetEvents()
	defer l.ResetEvents()
	var buf bytes.Buffer
	l.SetMirror(&buf, LevelInfo)
	defer l.SetMirror(nil, LevelOff)

	l.With("p3").Warn("evicting unresponsive", "evicted", []string{"p4"}, "source", "gossip")
	line := strings.TrimSpace(buf.String())
	for _, want := range []string{"level=warn", "principal=p3", `msg="evicting unresponsive"`, "evicted=[p4]", "source=gossip"} {
		if !strings.Contains(line, want) {
			t.Errorf("mirror line missing %q:\n%s", want, line)
		}
	}
	// Fields render sorted, so the line is deterministic.
	if strings.Index(line, "evicted=") > strings.Index(line, "source=") {
		t.Errorf("fields not sorted: %s", line)
	}
}

// TestLogsHandlerFilters: the /debug/logs endpoint serves the ring as JSON
// and applies level/principal/n filters.
func TestLogsHandlerFilters(t *testing.T) {
	l := L()
	l.ResetEvents()
	defer l.ResetEvents()
	l.With("p0").Info("a")
	l.With("p1").Warn("b")
	l.With("p0").Error("c")

	get := func(query string) []Event {
		t.Helper()
		req := httptest.NewRequest("GET", "/debug/logs"+query, nil)
		rec := httptest.NewRecorder()
		LogsHandler(l).ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("GET %s: HTTP %d", query, rec.Code)
		}
		var ev []Event
		if err := json.Unmarshal(rec.Body.Bytes(), &ev); err != nil {
			t.Fatalf("GET %s: %v", query, err)
		}
		return ev
	}

	if ev := get(""); len(ev) != 3 {
		t.Fatalf("unfiltered: got %d events, want 3", len(ev))
	}
	if ev := get("?level=warn"); len(ev) != 2 || ev[0].Msg != "b" {
		t.Fatalf("level filter: %+v", ev)
	}
	if ev := get("?principal=p0"); len(ev) != 2 || ev[1].Msg != "c" {
		t.Fatalf("principal filter: %+v", ev)
	}
	if ev := get("?n=1"); len(ev) != 1 || ev[0].Msg != "c" {
		t.Fatalf("n filter: %+v", ev)
	}
	req := httptest.NewRequest("GET", "/debug/logs?level=bogus", nil)
	rec := httptest.NewRecorder()
	LogsHandler(l).ServeHTTP(rec, req)
	if rec.Code != 400 {
		t.Fatalf("bad level: HTTP %d, want 400", rec.Code)
	}
}

// TestParseLevelRoundTrip: every level name parses back to itself.
func TestParseLevelRoundTrip(t *testing.T) {
	for _, lv := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError, LevelOff} {
		got, err := ParseLevel(lv.String())
		if err != nil || got != lv {
			t.Errorf("ParseLevel(%q) = %v, %v", lv.String(), got, err)
		}
	}
	if _, err := ParseLevel("noise"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}
