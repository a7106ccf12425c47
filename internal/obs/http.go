package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"sync"
	"time"
)

// MetricsHandler serves the registry in Prometheus text exposition format
// — the /metrics endpoint.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, r.Render())
	})
}

// SpansHandler serves the process's span ring as a JSON array — the
// /debug/spans endpoint a wave-trace collector scrapes from every node.
// Filter one wave with ?trace=<id>; filter one node's spans (in-process
// clusters share the ring) with ?node=<addr>.
func SpansHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		all, q := Spans(), req.URL.Query()
		if t := q.Get("trace"); t != "" {
			id, err := strconv.ParseUint(t, 10, 64)
			if err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			all = slices.DeleteFunc(all, func(s Span) bool { return s.Trace != id })
		}
		if node := q.Get("node"); node != "" {
			all = slices.DeleteFunc(all, func(s Span) bool { return s.Node != node })
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(all)
	})
}

// Mount registers the observability endpoints on a mux: /metrics
// (Prometheus text over the default registry), /debug/spans (span dump),
// /debug/logs (the log ring), /readyz and /healthz (the current run's
// lifecycle), and /debug/pprof/* (Go profiling).
func Mount(mux *http.ServeMux) {
	mux.Handle("/metrics", MetricsHandler(Default()))
	mux.Handle("/debug/spans", SpansHandler())
	mux.Handle("/debug/logs", LogsHandler())
	mux.Handle("/readyz", lifecycleHandler(State.ready))
	mux.Handle("/healthz", lifecycleHandler(func(s State) bool { return s != StateFailed }))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ServeDebug serves mux over HTTP on addr; a nil mux serves the standard
// endpoints (Mount). It returns the bound address and a stop function that
// drains in-flight scrapes for up to two seconds, then cuts them off, so a
// -dump run exits without a lingering socket.
func ServeDebug(addr string, mux *http.ServeMux) (string, func(), error) {
	if mux == nil {
		mux = http.NewServeMux()
		Mount(mux)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: debug server: %w", err)
	}
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), sync.OnceFunc(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
		<-done
	}), nil
}
