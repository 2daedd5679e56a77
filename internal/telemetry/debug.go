package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugHandler returns the debug mux the CLIs expose behind
// -debug-addr: the standard net/http/pprof profiles, the process-wide
// expvar dump, a plain-text /metrics rendering of reg (live, including
// volatile wall-clock gauges), and the /healthz and /readyz probes.
// reg may be nil, in which case /metrics reports no metrics.
//
// /healthz (liveness) and /readyz (readiness) answer 200 while the
// process serves HTTP at all, so fleet tooling can probe every
// txsampler process, one-shot CLI or daemon, the same way.
func DebugHandler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteText(w, reg.Snapshot(true))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "txsampler debug endpoints: /debug/pprof/ /debug/vars /metrics /healthz /readyz")
	})
	return mux
}

// DebugServer is a running debug endpoint; Close shuts it down.
type DebugServer struct {
	// Addr is the bound address (useful when the caller asked for
	// port 0).
	Addr string
	ln   net.Listener
}

// Close stops the server's listener.
func (d *DebugServer) Close() error { return d.ln.Close() }

// ServeDebug binds addr and serves DebugHandler(reg) on it
// in a background goroutine. It returns once the listener is bound so
// callers can print the effective address; serving errors after a
// clean bind are ignored (the endpoint is best-effort diagnostics).
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: debug listener: %w", err)
	}
	srv := &http.Server{Handler: DebugHandler(reg)}
	go func() { _ = srv.Serve(ln) }()
	return &DebugServer{Addr: ln.Addr().String(), ln: ln}, nil
}
