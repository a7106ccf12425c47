package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Level classifies a log event's severity.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
	// LevelOff is above every event level: a sink threshold of LevelOff
	// silences the sink entirely.
	LevelOff
)

// String renders the level the way events serialize it.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "off"
	}
}

// ParseLevel parses a level name (as produced by String).
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off", "none":
		return LevelOff, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (debug|info|warn|error|off)", s)
}

// Event is one structured log record. Principal ties an event to a
// /metrics label set; Fields carries everything else.
type Event struct {
	Time      time.Time      `json:"ts"`
	Level     string         `json:"level"`
	Msg       string         `json:"msg"`
	Principal string         `json:"principal,omitempty"`
	Fields    map[string]any `json:"fields,omitempty"`
}

// logRingCap bounds the in-memory event ring.
const logRingCap = 4096

// logSink is the shared event ring and mirror configuration behind every
// Logger handle of the process; the ring's mutex guards the mirror too.
type logSink struct {
	ring[Event]
	out    io.Writer // optional human-readable mirror (stderr in the CLIs)
	outMin Level
}

// Logger is a handle on the process's structured event log, optionally
// bound to a principal. Handles are cheap; With returns a bound copy
// sharing the same ring and mirror.
type Logger struct {
	sink      *logSink
	principal string
}

var (
	defaultSink   = &logSink{ring: ring[Event]{size: logRingCap}, outMin: LevelOff}
	defaultLogger = &Logger{sink: defaultSink}

	cLogEvents map[Level]*Counter
)

func init() {
	r := Default()
	r.Help("sbx_log_events_total", "Structured log events recorded, by level.")
	r.Help("sbx_log_dropped_total", "Log events overwritten in the bounded ring before being read.")
	cLogEvents = map[Level]*Counter{
		LevelDebug: r.Counter("sbx_log_events_total", Labels{"level": "debug"}),
		LevelInfo:  r.Counter("sbx_log_events_total", Labels{"level": "info"}),
		LevelWarn:  r.Counter("sbx_log_events_total", Labels{"level": "warn"}),
		LevelError: r.Counter("sbx_log_events_total", Labels{"level": "error"}),
	}
	defaultSink.dropped = r.Counter("sbx_log_dropped_total", nil)
}

// L returns the process-wide default logger.
func L() *Logger { return defaultLogger }

// With returns a logger stamping every event with the given principal.
func (l *Logger) With(principal string) *Logger {
	return &Logger{sink: l.sink, principal: principal}
}

// SetMirror mirrors events at or above min to w in a human-readable
// logfmt-style line (the ring always records regardless). A nil writer or
// LevelOff disables mirroring.
func (l *Logger) SetMirror(w io.Writer, min Level) {
	l.sink.mu.Lock()
	l.sink.out = w
	l.sink.outMin = min
	l.sink.mu.Unlock()
}

// Log records one event. kv are alternating key, value pairs folded into
// Fields; a trailing key without a value is stored with a nil value.
func (l *Logger) Log(level Level, msg string, kv ...any) {
	e := Event{Level: level.String(), Msg: msg, Principal: l.principal}
	if len(kv) > 0 {
		e.Fields = make(map[string]any, (len(kv)+1)/2)
		for i := 0; i < len(kv); i += 2 {
			k, ok := kv[i].(string)
			if !ok {
				k = fmt.Sprint(kv[i])
			}
			if i+1 < len(kv) {
				e.Fields[k] = kv[i+1]
			} else {
				e.Fields[k] = nil
			}
		}
	}
	l.emit(level, e)
}

func (l *Logger) emit(level Level, e Event) {
	e.Time = time.Now()
	if c := cLogEvents[level]; c != nil {
		c.Inc()
	}
	s := l.sink
	s.mu.Lock()
	s.pushLocked(e)
	out, outMin := s.out, s.outMin
	s.mu.Unlock()
	if out != nil && level >= outMin {
		fmt.Fprintln(out, mirrorLine(e))
	}
}

// mirrorLine renders an event as one human-readable logfmt-style line.
func mirrorLine(e Event) string {
	var sb strings.Builder
	sb.WriteString(e.Time.UTC().Format("2006-01-02T15:04:05.000Z"))
	sb.WriteString(" level=")
	sb.WriteString(e.Level)
	if e.Principal != "" {
		sb.WriteString(" principal=")
		sb.WriteString(e.Principal)
	}
	sb.WriteString(" msg=")
	sb.WriteString(strconv.Quote(e.Msg))
	keys := make([]string, 0, len(e.Fields))
	for k := range e.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%v", k, e.Fields[k])
	}
	return sb.String()
}

// Debug records a debug-level event.
func (l *Logger) Debug(msg string, kv ...any) { l.Log(LevelDebug, msg, kv...) }

// Info records an info-level event.
func (l *Logger) Info(msg string, kv ...any) { l.Log(LevelInfo, msg, kv...) }

// Warn records a warn-level event.
func (l *Logger) Warn(msg string, kv ...any) { l.Log(LevelWarn, msg, kv...) }

// Error records an error-level event.
func (l *Logger) Error(msg string, kv ...any) { l.Log(LevelError, msg, kv...) }

// Events returns the ring's current contents, oldest first.
func (l *Logger) Events() []Event { return l.sink.items() }

// EventDrops reports how many events were overwritten before being read.
func (l *Logger) EventDrops() int64 { return l.sink.dropCount() }

// ResetEvents clears the ring (tests and benchmark iterations).
func (l *Logger) ResetEvents() { l.sink.reset(0) }

// LogsHandler serves the event ring as a JSON array — the /debug/logs
// endpoint a cluster collector scrapes alongside /metrics and /debug/spans.
// Filters: ?level=<min level>, ?principal=<name>, ?n=<last N events>.
func LogsHandler(l *Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		events := l.Events()
		q := req.URL.Query()
		if v := q.Get("level"); v != "" {
			min, err := ParseLevel(v)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			events = filterEvents(events, func(e Event) bool {
				lv, perr := ParseLevel(e.Level)
				return perr == nil && lv >= min
			})
		}
		if v := q.Get("principal"); v != "" {
			events = filterEvents(events, func(e Event) bool { return e.Principal == v })
		}
		if v := q.Get("n"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			if n < len(events) {
				events = events[len(events)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(events)
	})
}

func filterEvents(events []Event, keep func(Event) bool) []Event {
	out := events[:0:0]
	for _, e := range events {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}
