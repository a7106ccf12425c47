package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"
)

// logRingCap bounds the in-memory record ring.
const logRingCap = 4096

// logEntry is one ring slot: a record's fields with its attributes folded
// into one slice, 72 bytes where a slog.Record is 288.
type logEntry struct {
	time  time.Time
	level slog.Level
	msg   string
	attrs []slog.Attr
}

// record rebuilds the slog record the entry was taken from.
func (e *logEntry) record() slog.Record {
	r := slog.NewRecord(e.time, e.level, e.msg, 0)
	r.AddAttrs(e.attrs...)
	return r
}

// logs is the process's one log store: every record any logger of the
// process writes, oldest overwritten first, plus the optional stderr mirror.
// The ring's mutex guards the mirror settings too; the mirror is written
// outside it.
var logs struct {
	ring[logEntry]
	mirror    slog.Handler // a text handler, nil when off
	mirrorMin slog.Level
}

// logEvents counts records by level: debug, info, warn, error.
var logEvents [4]*Counter

var logger = slog.New(&ringHandler{})

func init() {
	r := Default()
	r.Help("sbx_log_events_total", "Structured log events recorded, by level.")
	r.Help("sbx_log_dropped_total", "Log events overwritten in the bounded ring before being read.")
	for i, name := range []string{"debug", "info", "warn", "error"} {
		logEvents[i] = r.Counter("sbx_log_events_total", Labels{"level": name})
	}
	logs.size = logRingCap
	logs.dropped = r.Counter("sbx_log_dropped_total", nil)
}

// L returns the process's logger. Bind a principal with
// L().With("principal", p): /debug/logs filters on that attribute.
func L() *slog.Logger { return logger }

// levelOff is above every record's level: as a threshold it admits none.
const levelOff = slog.Level(math.MaxInt)

// logLevels are the level names LogLevel accepts.
var logLevels = map[string]slog.Level{
	"debug": slog.LevelDebug, "info": slog.LevelInfo,
	"warn": slog.LevelWarn, "warning": slog.LevelWarn,
	"error": slog.LevelError, "off": levelOff, "none": levelOff,
}

// LogLevel parses a threshold name, in any case and with surrounding
// space: debug, info, warn (warning), error, or off (none). sbxnode's
// -loglevel and /debug/logs?level= both read it.
func LogLevel(name string) (slog.Level, error) {
	if l, ok := logLevels[strings.ToLower(strings.TrimSpace(name))]; ok {
		return l, nil
	}
	return 0, fmt.Errorf("unknown level %q (debug|info|warn|error|off)", name)
}

// SetMirror mirrors records at or above min to w through slog's text
// handler; the ring records every level regardless. A nil w, or min
// levelOff, mirrors nothing.
func SetMirror(w io.Writer, min slog.Level) {
	var h slog.Handler
	if w != nil && min != levelOff {
		h = slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug})
	}
	logs.mu.Lock()
	logs.mirror, logs.mirrorMin = h, min
	logs.mu.Unlock()
}

// LogRecords returns the ring's records, oldest first. Each carries the
// attributes its logger was bound with ahead of its own.
func LogRecords() []slog.Record {
	entries := logs.items()
	recs := make([]slog.Record, len(entries))
	for i := range entries {
		recs[i] = entries[i].record()
	}
	return recs
}

// ringHandler is the slog handler behind L(). ops are the WithAttrs and
// WithGroup calls that derived it, in order; Handle folds them into each
// record, so a stored record stands alone.
type ringHandler struct {
	ops []handlerOp
}

// handlerOp is one WithGroup (group set) or WithAttrs call.
type handlerOp struct {
	group string
	attrs []slog.Attr
}

func (h *ringHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *ringHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &ringHandler{ops: append(slices.Clip(h.ops), handlerOp{attrs: attrs})}
}

func (h *ringHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	return &ringHandler{ops: append(slices.Clip(h.ops), handlerOp{group: name})}
}

func (h *ringHandler) Handle(ctx context.Context, r slog.Record) error {
	e := logEntry{time: r.Time, level: r.Level, msg: r.Message}
	if n := r.NumAttrs(); n > 0 || len(h.ops) > 0 {
		e.attrs = make([]slog.Attr, 0, n)
		r.Attrs(func(a slog.Attr) bool { e.attrs = append(e.attrs, a); return true })
		for i := len(h.ops) - 1; i >= 0; i-- {
			if g := h.ops[i].group; g != "" {
				e.attrs = []slog.Attr{{Key: g, Value: slog.GroupValue(e.attrs...)}}
			} else {
				e.attrs = append(slices.Clip(h.ops[i].attrs), e.attrs...)
			}
		}
	}
	logEvents[min(max((int(r.Level)+4)/4, 0), 3)].Inc() // slog's levels are 4 apart, debug at -4
	logs.mu.Lock()
	logs.pushLocked(e)
	mirror, min := logs.mirror, logs.mirrorMin
	logs.mu.Unlock()
	if mirror != nil && r.Level >= min {
		return mirror.Handle(ctx, e.record())
	}
	return nil
}

// WriteLogs writes records as JSON lines through slog's JSON handler — the
// body of /debug/logs and sbxnode -dump's logs.json.
func WriteLogs(w io.Writer, recs []slog.Record) error {
	h := slog.NewJSONHandler(w, nil)
	for _, r := range recs {
		if err := h.Handle(context.Background(), r); err != nil {
			return err
		}
	}
	return nil
}

// LogsHandler serves the record ring — the /debug/logs endpoint. Filters:
// ?level=<min level>, ?principal=<name>, ?n=<last N records>.
func LogsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		recs := LogRecords()
		q := req.URL.Query()
		if v := q.Get("level"); v != "" {
			min, err := LogLevel(v)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			recs = slices.DeleteFunc(recs, func(r slog.Record) bool { return r.Level < min })
		}
		if v := q.Get("principal"); v != "" {
			recs = slices.DeleteFunc(recs, func(r slog.Record) bool { return principalOf(r) != v })
		}
		if v := q.Get("n"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			recs = recs[max(0, len(recs)-n):]
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = WriteLogs(w, recs)
	})
}

// principalOf returns a record's top-level principal attribute.
func principalOf(r slog.Record) string {
	var p string
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "principal" {
			p = a.Value.String()
			return false
		}
		return true
	})
	return p
}
