package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"raven"
	"raven/internal/testfix"
)

func covidMux(t *testing.T, cfg serveConfig) *http.ServeMux {
	t.Helper()
	s := raven.NewSession()
	pi, pt, bt := testfix.CovidTables()
	s.RegisterTable(pi)
	s.RegisterTable(pt)
	s.RegisterTable(bt)
	if err := s.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	return newServeMux(s, cfg)
}

func covidServer(t *testing.T, cfg serveConfig) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(covidMux(t, cfg))
	t.Cleanup(srv.Close)
	return srv
}

func decodeEnvelope(t *testing.T, body io.Reader) errorBody {
	t.Helper()
	var env errorEnvelope
	if err := json.NewDecoder(body).Decode(&env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v", err)
	}
	return env.Error
}

func TestStatusForMapping(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("raven: executing query: %w", err) }
	for _, tc := range []struct {
		err    error
		status int
		code   string
	}{
		{wrap(context.DeadlineExceeded), http.StatusRequestTimeout, "deadline_exceeded"},
		{wrap(context.Canceled), StatusClientClosedRequest, "canceled"},
		{wrap(raven.ErrOverloaded), http.StatusServiceUnavailable, "overloaded"},
		{wrap(&raven.PanicError{Origin: "test", Value: "boom"}), http.StatusInternalServerError, "internal_fault"},
		{errors.New("syntax error"), http.StatusUnprocessableEntity, "query_failed"},
	} {
		status, code := statusFor(tc.err)
		if status != tc.status || code != tc.code {
			t.Errorf("statusFor(%v) = (%d, %s), want (%d, %s)", tc.err, status, code, tc.status, tc.code)
		}
	}
}

func TestWriteQueryErrorOverloadSetsRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	writeQueryError(rec, raven.ErrOverloaded)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
	}
	if body := decodeEnvelope(t, rec.Body); body.Code != "overloaded" || body.Status != 503 {
		t.Fatalf("envelope = %+v", body)
	}
}

func TestServeQueryHappyPath(t *testing.T) {
	srv := covidServer(t, serveConfig{queryTimeout: 30 * time.Second})
	resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader(testfix.CovidQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body = %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if resp.Header.Get("X-Raven-Wall") == "" {
		t.Fatal("missing X-Raven-Wall header")
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "3") {
		t.Fatalf("CSV body missing the expected row:\n%s", body)
	}
}

// failingResponse is a ResponseWriter whose every Write fails, as when
// the client has gone; it counts the calls made on it.
type failingResponse struct {
	header       http.Header
	writes       int
	writeHeaders int
}

func (f *failingResponse) Header() http.Header { return f.header }

func (f *failingResponse) Write([]byte) (int, error) {
	f.writes++
	return 0, errors.New("connection reset")
}

func (f *failingResponse) WriteHeader(int) { f.writeHeaders++ }

func TestServeQueryStopsOnWriteError(t *testing.T) {
	mux := covidMux(t, serveConfig{})
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(testfix.CovidQuery))
	w := &failingResponse{header: http.Header{}}
	mux.ServeHTTP(w, req)
	// The failed Write is the last call: no error status or envelope is
	// appended to a stream whose 200 is already committed.
	if w.writes != 1 || w.writeHeaders != 0 {
		t.Fatalf("after a failed Write: %d Writes, %d WriteHeaders; want 1 and 0", w.writes, w.writeHeaders)
	}
	if ct := w.header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("Content-Type = %q, want text/csv", ct)
	}
}

func TestServeQueryErrors(t *testing.T) {
	srv := covidServer(t, serveConfig{})
	t.Run("empty", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if body := decodeEnvelope(t, resp.Body); body.Code != "empty_query" {
			t.Fatalf("envelope = %+v", body)
		}
	})
	t.Run("bad-sql", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader("SELECT FROM WHERE"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422", resp.StatusCode)
		}
		body := decodeEnvelope(t, resp.Body)
		if body.Code != "query_failed" || body.Status != http.StatusUnprocessableEntity || body.Message == "" {
			t.Fatalf("envelope = %+v", body)
		}
	})
}

func TestServeQueryDeadline(t *testing.T) {
	// A deadline that has effectively already expired: the engine's first
	// context check fires, mapping to 408 deterministically.
	srv := covidServer(t, serveConfig{queryTimeout: time.Nanosecond})
	resp, err := http.Get(srv.URL + "/query?q=" + url.QueryEscape(testfix.CovidQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408", resp.StatusCode)
	}
	if body := decodeEnvelope(t, resp.Body); body.Code != "deadline_exceeded" {
		t.Fatalf("envelope = %+v", body)
	}
}

func TestServeStats(t *testing.T) {
	srv := covidServer(t, serveConfig{})
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"plan_cache_hits", "sched_workers", "sched_admitted", "sched_recovered", "tables", "models"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("stats missing %q: %v", key, stats)
		}
	}
}
