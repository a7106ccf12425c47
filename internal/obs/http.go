package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
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
		all := Spans()
		if t := req.URL.Query().Get("trace"); t != "" {
			var id uint64
			if _, err := fmt.Sscanf(t, "%d", &id); err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			filtered := all[:0]
			for _, s := range all {
				if s.Trace == id {
					filtered = append(filtered, s)
				}
			}
			all = filtered
		}
		if node := req.URL.Query().Get("node"); node != "" {
			filtered := all[:0:0]
			for _, s := range all {
				if s.Node == node {
					filtered = append(filtered, s)
				}
			}
			all = filtered
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(all)
	})
}

// Mount registers the observability endpoints on a mux: /metrics
// (Prometheus text over the default registry), /debug/spans (span dump),
// /debug/logs (structured event ring), /healthz and /readyz (the default
// health state machine), and /debug/pprof/* (Go profiling).
func Mount(mux *http.ServeMux) {
	MountWith(mux, DefaultHealth())
}

// MountWith is Mount with an explicit health instance — in-process tests
// run several lifecycles per process and cannot share the default.
func MountWith(mux *http.ServeMux, h *Health) {
	mux.Handle("/metrics", MetricsHandler(Default()))
	mux.Handle("/debug/spans", SpansHandler())
	mux.Handle("/debug/logs", LogsHandler(L()))
	mux.Handle("/healthz", HealthzHandler(h))
	mux.Handle("/readyz", ReadyzHandler(h))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// DebugServer is a running observability HTTP server with a graceful
// shutdown path: Close drains in-flight scrapes before the listener goes
// away, so a -dump run exits without a lingering socket and a
// mid-scrape collector is not cut off.
type DebugServer struct {
	addr      string
	srv       *http.Server
	done      chan error
	closeOnce sync.Once
	closeErr  error
}

// Addr returns the server's bound address (useful with ":0" hints).
func (s *DebugServer) Addr() string { return s.addr }

// Close shuts the server down gracefully within ctx, then forcibly.
// Idempotent: later calls return the first shutdown's result.
func (s *DebugServer) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.closeErr = s.srv.Shutdown(ctx)
		if s.closeErr != nil {
			// Shutdown timed out with handlers in flight: cut them off so
			// the process can exit.
			s.srv.Close()
		}
		<-s.done
	})
	return s.closeErr
}

// StartDebugServer serves mux on addr. A nil mux serves the standard
// endpoints (Mount on a fresh mux). The caller owns the returned server
// and must Close it on teardown.
func StartDebugServer(addr string, mux *http.ServeMux) (*DebugServer, error) {
	if mux == nil {
		mux = http.NewServeMux()
		Mount(mux)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	srv := &http.Server{Handler: mux}
	ds := &DebugServer{addr: ln.Addr().String(), srv: srv, done: make(chan error, 1)}
	go func() { ds.done <- srv.Serve(ln) }()
	return ds, nil
}

// ServeDebug starts an HTTP server with the standard observability
// endpoints on addr, returning the bound address and a stop function that
// shuts it down gracefully (bounded at two seconds). sbxnode and the
// benchmark drivers expose this behind -debugaddr, so a sweep in flight is
// scraped like a deployment; callers that need the full lifecycle use
// StartDebugServer.
func ServeDebug(addr string) (string, func(), error) {
	ds, err := StartDebugServer(addr, nil)
	if err != nil {
		return "", nil, err
	}
	return ds.Addr(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = ds.Close(ctx)
	}, nil
}
