// The HTTP serving front end: per-request timeouts, graceful shutdown,
// and a JSON error envelope whose status codes distinguish client errors
// (400/422), deadline expiry (408), client disconnects (499), engine
// faults (500), and overload (503 + Retry-After).

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"raven"
	"raven/internal/data"
)

// StatusClientClosedRequest is the de-facto-standard 499 status (nginx)
// for a client that disconnected before its query finished.
const StatusClientClosedRequest = 499

// serveConfig carries the serving knobs (set by flags in main).
type serveConfig struct {
	// queryTimeout bounds each query's execution (0 = no deadline).
	queryTimeout time.Duration
	// shutdownTimeout bounds the graceful drain of in-flight queries
	// after SIGINT/SIGTERM.
	shutdownTimeout time.Duration
	// admitWait bounds how long an arriving query waits for a scheduler
	// admission slot before being rejected with 503 (0 = wait forever).
	admitWait time.Duration
}

// errorEnvelope is the JSON body of every error response:
// {"error":{"code":"...","message":"...","status":NNN}}.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"status"`
}

// statusFor maps a query error to its HTTP status and machine-readable
// code. Timeouts and client cancels surface out of the engine as wrapped
// context errors, overload as raven.ErrOverloaded, and panics isolated
// inside the engine as *raven.PanicError — everything else is a query
// problem (bad SQL, unknown table/model) and therefore 422.
func statusFor(err error) (status int, code string) {
	var pe *raven.PanicError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, raven.ErrOverloaded):
		return http.StatusServiceUnavailable, "overloaded"
	case errors.As(err, &pe):
		return http.StatusInternalServerError, "internal_fault"
	default:
		return http.StatusUnprocessableEntity, "query_failed"
	}
}

// writeQueryError renders err through statusFor; 503 responses carry
// Retry-After so well-behaved clients back off instead of hammering an
// overloaded pool.
func writeQueryError(w http.ResponseWriter, err error) {
	status, code := statusFor(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeErrorEnvelope(w, status, code, err.Error())
}

func writeErrorEnvelope(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorEnvelope{Error: errorBody{Code: code, Message: msg, Status: status}})
}

// newServeMux builds the serving handler over one shared session
// (separate from serve so tests drive it through httptest).
func newServeMux(s *raven.Session, cfg serveConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		sql := r.URL.Query().Get("q")
		if sql == "" && r.Body != nil {
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err != nil {
				writeErrorEnvelope(w, http.StatusBadRequest, "bad_request", err.Error())
				return
			}
			sql = string(body)
		}
		if sql == "" {
			writeErrorEnvelope(w, http.StatusBadRequest, "empty_query",
				"ravensql: empty query (POST the SQL or pass ?q=)")
			return
		}
		// The request context carries the client disconnect; the query
		// timeout is layered on top so whichever fires first cancels the
		// engine at its next morsel/batch boundary.
		ctx := r.Context()
		if cfg.queryTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.queryTimeout)
			defer cancel()
		}
		res, err := s.QueryContext(ctx, sql)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		w.Header().Set("X-Raven-Wall", res.Wall.String())
		// The first Write commits status 200 and WriteCSV fails only
		// inside a Write, so a failed stream cannot become an error
		// response: it stops, and the client sees a truncated body.
		_ = data.WriteCSV(res.Table, w)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		hits, misses := s.PlanCacheStats()
		sch := s.Scheduler()
		mem := s.MemoryStats()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"plan_cache_hits":    hits,
			"plan_cache_misses":  misses,
			"sched_workers":      sch.Workers(),
			"sched_admitted":     sch.Admitted(),
			"sched_recovered":    sch.Recovered(),
			"mem_budget_bytes":   mem.BudgetBytes,
			"mem_reserved_bytes": mem.ReservedBytes,
			"mem_spilled_bytes":  mem.SpilledBytes,
			"mem_spills":         mem.Spills,
			"mem_active_queries": mem.ActiveQueries,
			"tables":             s.Tables(),
			"models":             s.Models(),
		})
	})
	return mux
}

// serve runs the HTTP serving front end over one shared session until the
// listener fails or SIGINT/SIGTERM arrives; on a signal, in-flight
// queries get cfg.shutdownTimeout to drain before the server exits.
func serve(s *raven.Session, addr string, cfg serveConfig) error {
	if cfg.admitWait > 0 {
		s.Scheduler().SetAdmitWait(cfg.admitWait)
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           newServeMux(s, cfg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	fmt.Fprintf(os.Stderr, "ravensql: serving on %s (workers=%d, query-timeout=%v)\n",
		addr, s.Scheduler().Workers(), cfg.queryTimeout)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "ravensql: %v — draining in-flight queries (max %v)\n",
			sig, cfg.shutdownTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}
