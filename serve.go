package raven

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"raven/internal/engine"
	"raven/internal/opt"
	"raven/internal/sched"
)

// This file is the serving side of a session: a plan cache so repeated
// prediction queries parse/plan/optimize once and execute many times, and
// prepared-query handles for the serving front end (cmd/ravensql -serve).
//
// The cache key is the normalized SQL text; every entry carries the
// catalog version it was planned under, so any registration (table, model)
// invalidates all earlier plans without coordination — the next execution
// replans against the new catalog. Cached plans are safe to execute
// concurrently: the optimized IR graph is immutable after optimization
// (lowering builds fresh operators per execution, and shared expression
// trees / pipelines are read-only at run time, which the concurrent
// differential harness pins down under -race).

// defaultPlanCacheSize bounds the number of cached plans per session.
const defaultPlanCacheSize = 256

type planEntry struct {
	version uint64
	graph   cachedGraph
	report  *opt.Report
	plan    string
}

// cachedGraph is the immutable optimized plan; a tiny alias-free wrapper
// type keeps the door open for attaching more precomputed state later.
type cachedGraph struct{ g *irGraph }

type planCache struct {
	mu      sync.Mutex
	entries map[string]*planEntry
	order   []string // FIFO eviction order
	cap     int
	hits    uint64
	misses  uint64
}

func newPlanCache(cap int) *planCache {
	return &planCache{entries: make(map[string]*planEntry), cap: cap}
}

// lookup returns the entry when present and planned under the current
// catalog version; stale entries are dropped so they cannot be served.
func (pc *planCache) lookup(key string, version uint64) *planEntry {
	if pc == nil {
		return nil
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e := pc.entries[key]
	if e == nil || e.version != version {
		if e != nil {
			delete(pc.entries, key)
		}
		pc.misses++
		return nil
	}
	pc.hits++
	return e
}

func (pc *planCache) store(key string, e *planEntry) {
	if pc == nil {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, exists := pc.entries[key]; !exists {
		pc.order = append(pc.order, key)
	}
	pc.entries[key] = e
	for len(pc.entries) > pc.cap && len(pc.order) > 0 {
		victim := pc.order[0]
		pc.order = pc.order[1:]
		delete(pc.entries, victim)
	}
}

func (pc *planCache) stats() (hits, misses uint64) {
	if pc == nil {
		return 0, 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses
}

// NormalizeSQL collapses whitespace runs to single spaces, strips SQL
// comments (`-- …` to end of line, `/* … */`) and trims the ends: the
// plan-cache key, so formatting differences between otherwise identical
// queries share one cached plan. Text inside quotes is preserved verbatim,
// with doubled quote characters (the `"a""b"` escape form, and its
// single-quote equivalent) recognized as escaped quote
// characters rather than the literal's end — otherwise the remainder of
// such a statement would be mangled as if it were outside the literal.
// Comments must not reach the cache key: two queries differing only in a
// comment are the same statement, and a `--` comment would otherwise
// swallow the rest of the line into the key text.
func NormalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	inQuote := byte(0)
	space := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if inQuote != 0 {
			b.WriteByte(c)
			if c == inQuote {
				if i+1 < len(sql) && sql[i+1] == inQuote {
					// Doubled quote: an escaped quote character inside
					// the literal, not its terminator.
					b.WriteByte(inQuote)
					i++
					continue
				}
				inQuote = 0
			}
			continue
		}
		if c == '-' && i+1 < len(sql) && sql[i+1] == '-' {
			for i < len(sql) && sql[i] != '\n' {
				i++
			}
			space = true
			continue
		}
		if c == '/' && i+1 < len(sql) && sql[i+1] == '*' {
			end := strings.Index(sql[i+2:], "*/")
			if end < 0 {
				i = len(sql) // unterminated: drop the rest
			} else {
				i += 2 + end + 1 // loop increment steps past the closing '/'
			}
			space = true
			continue
		}
		switch c {
		case '\'', '"':
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			inQuote = c
			b.WriteByte(c)
		case ' ', '\t', '\n', '\r':
			space = true
		default:
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			b.WriteByte(c)
		}
	}
	return b.String()
}

// PlanCacheStats returns the session's plan-cache hit/miss counters.
func (s *Session) PlanCacheStats() (hits, misses uint64) {
	return s.plans.stats()
}

// preparedPlan resolves the cached plan for normalized SQL, planning and
// caching on miss. The catalog version is snapshotted BEFORE planning: if
// a registration races in between, the entry records the older version and
// the next lookup replans — conservative, never stale.
func (s *Session) preparedPlan(norm string) (*planEntry, error) {
	version := s.cat.Version()
	if e := s.plans.lookup(norm, version); e != nil {
		return e, nil
	}
	g, rep, err := s.prepare(norm)
	if err != nil {
		return nil, err
	}
	e := &planEntry{version: version, graph: cachedGraph{g: g}, report: rep, plan: g.Explain()}
	s.plans.store(norm, e)
	return e, nil
}

// Prepared is a reusable handle to a planned query. Execute runs the
// cached plan; when the catalog has changed since planning, it transparently
// replans first. Prepared handles are safe for concurrent use.
type Prepared struct {
	s    *Session
	norm string
}

// Prepare parses, plans and optimizes the query once and returns a handle
// for repeated execution. Planning errors surface here, not at Execute.
func (s *Session) Prepare(sql string) (*Prepared, error) {
	norm := NormalizeSQL(sql)
	if _, err := s.preparedPlan(norm); err != nil {
		return nil, err
	}
	return &Prepared{s: s, norm: norm}, nil
}

// Execute runs the prepared query.
func (p *Prepared) Execute() (*Result, error) {
	return p.s.execPlanned(context.Background(), p.norm)
}

// ExecuteContext runs the prepared query under a context; cancellation
// semantics match Session.QueryContext.
func (p *Prepared) ExecuteContext(ctx context.Context) (*Result, error) {
	return p.s.execPlanned(ctx, p.norm)
}

// Plan returns the optimized plan text.
func (p *Prepared) Plan() (string, error) {
	e, err := p.s.preparedPlan(p.norm)
	if err != nil {
		return "", err
	}
	return e.plan, nil
}

// execPlanned executes the (cached) plan for normalized SQL.
func (s *Session) execPlanned(ctx context.Context, norm string) (*Result, error) {
	e, err := s.preparedPlan(norm)
	if err != nil {
		return nil, err
	}
	res, err := engine.RunContext(ctx, e.graph.g, s.cat, s.profile)
	if err != nil {
		return nil, fmt.Errorf("raven: executing query: %w", err)
	}
	return newResult(res, e.report, e.plan), nil
}

// Scheduler returns the morsel scheduler this session's parallel queries
// run on (the process-wide shared pool unless the profile overrides it).
func (s *Session) Scheduler() *sched.Scheduler {
	if s.profile.Sched != nil {
		return s.profile.Sched
	}
	return sched.Default()
}

// MemoryStats is a snapshot of the session's engine-global memory budget
// (WithGlobalMemoryBudget): how much of the shared residency budget is
// reserved by in-flight queries and how much has spilled to disk so far.
type MemoryStats struct {
	// BudgetBytes is the configured global budget (0 = none configured).
	BudgetBytes int64
	// ReservedBytes is the resident breaker bytes currently reserved
	// across all in-flight queries.
	ReservedBytes int64
	// SpilledBytes is the cumulative bytes spilled across all queries
	// since the session was created.
	SpilledBytes int64
	// Spills is the cumulative spill file count.
	Spills int
	// ActiveQueries is the number of queries currently drawing from the
	// budget.
	ActiveQueries int
}

// MemoryStats reports global memory pressure; the zero value when the
// session has no global budget.
func (s *Session) MemoryStats() MemoryStats {
	g := s.globalBudget
	return MemoryStats{
		BudgetBytes:   g.Total(),
		ReservedBytes: g.Reserved(),
		SpilledBytes:  g.SpilledBytes(),
		Spills:        g.Spills(),
		ActiveQueries: g.ActiveQueries(),
	}
}
