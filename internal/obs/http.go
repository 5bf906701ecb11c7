package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Handler returns the live-introspection mux:
//
//	/metrics   JSON Snapshot of the registry (expvar-style: one GET, one
//	           self-describing JSON document)
//	/progress  JSON of whatever progress() returns (the engine's latest
//	           Progress report); 204 when progress is nil or returns nil
//	/healthz   liveness probe: 200 with uptime and whether a verdict is
//	           in progress — distinct from /metrics so probes and load
//	           balancers never parse a metric snapshot to ask "is it up?"
//	/pprof/    the standard net/http/pprof handlers (index, profile,
//	           heap, goroutine, trace, ...), re-rooted under /pprof/
//	/debug/trace  on-demand runtime execution trace capture
//	           (?seconds=N, default 1) — loadable in go tool trace
//	           and in Perfetto
//
// The handler holds no locks across requests: /metrics snapshots the
// registry, /progress and /healthz call progress() once.
func Handler(reg *Registry, progress func() any) *http.ServeMux {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, reg.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// "In progress" means the run has produced at least one progress
		// report — the engine's ticker is alive and a verdict is being
		// worked toward (or was just reached; the handler outlives the run
		// only by the shutdown grace).
		inProgress := false
		if progress != nil {
			inProgress = progress() != nil
		}
		writeJSON(w, map[string]any{
			"status":              "ok",
			"uptime_ns":           time.Since(start).Nanoseconds(),
			"verdict_in_progress": inProgress,
		})
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		var v any
		if progress != nil {
			v = progress()
		}
		if v == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, v)
	})
	// net/http/pprof expects to live under /debug/pprof/; rewrite the
	// shorter /pprof/ prefix so the index's relative links keep working.
	mux.HandleFunc("/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/pprof/profile", pprof.Profile)
	mux.HandleFunc("/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/pprof/trace", pprof.Trace)
	mux.HandleFunc("/pprof/", func(w http.ResponseWriter, r *http.Request) {
		r.URL.Path = "/debug/pprof/" + strings.TrimPrefix(r.URL.Path, "/pprof/")
		pprof.Index(w, r)
	})
	mux.HandleFunc("/debug/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // a failed write is the client's problem
}

// Serve starts an HTTP server for h on addr (":0" picks a free port) and
// returns the bound address and a shutdown function. The server runs until
// shutdown is called; serving errors after shutdown are discarded.
func Serve(addr string, h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // Close below surfaces real errors as ErrServerClosed
	return ln.Addr().String(), srv.Close, nil
}
