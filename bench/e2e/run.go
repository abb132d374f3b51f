package main

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"raven"
	"raven/internal/data"
)

// warmPointOps is the open-loop warm-up; a closed loop warms up with one
// cycle. Warm-up is part of setup_s: a freshly started server pays it too.
const warmPointOps = 5

// sink is where results go: it counts and fingerprints the CSV bytes a
// client would receive, so serialization is in the op and every byte is
// checked without being kept.
type sink struct {
	n int64
	h hash.Hash64
}

func newSink() *sink { return &sink{h: fnv.New64a()} }

func (s *sink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	s.h.Write(p)
	return len(p), nil
}

// bench is one workload bound to its generated inputs and a session.
type bench struct {
	w     workload
	in    *inputs
	spill string // spill directory; must be empty whenever no query runs
	s     *raven.Session
	// want maps a closed-loop text to the FNV-64a of its CSV bytes as
	// produced in set-up and checked against the reference session; every
	// timed execution must reproduce it (the byte-identity contract).
	want map[string]uint64
}

// tally accumulates what one client observed. Clients keep their own and
// merge at the end, so the timed path takes no lock.
type tally struct {
	lat      []float64 // ms, successful ops only: a failed op has no latency
	ops      int
	failures []string
	sessions int
	cold     int
	bytes    int64
	spilled  []int64 // per text of the cycle (one slot for point ops)
	lateMs   float64 // open loop: worst start delay behind the schedule
}

func (t *tally) fail(format string, args ...any) {
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.ops += o.ops
	t.failures = append(t.failures, o.failures...)
	t.sessions += o.sessions
	t.cold += o.cold
	t.bytes += o.bytes
	for i, v := range o.spilled {
		t.addSpilled(i, v)
	}
	t.lateMs = max(t.lateMs, o.lateMs)
}

// addSpilled adds v spilled bytes to text i's slot.
func (t *tally) addSpilled(i int, v int64) {
	for len(t.spilled) <= i {
		t.spilled = append(t.spilled, 0)
	}
	t.spilled[i] += v
}

// mergeAll folds the clients' tallies into one.
func mergeAll(tallies []tally) tally {
	var all tally
	for i := range tallies {
		all.merge(&tallies[i])
	}
	return all
}

// note books one executed text into the tally.
func (t *tally) note(i int, res *raven.Result, n int64) {
	t.sessions += res.Sessions
	t.cold += res.ColdSessions
	t.bytes += n
	t.addSpilled(i, res.SpilledBytes)
}

// open starts a session the way `ravensql -serve -parallelism 0` does:
// register every CSV, then the model file.
func (b *bench) open() (*raven.Session, error) {
	opts := []raven.Option{raven.WithParallelism(0)}
	if b.w.chunkThreshold != 0 {
		opts = append(opts, raven.WithChunkedRegistration(b.w.chunkThreshold))
	}
	if b.w.budget > 0 {
		opts = append(opts, raven.WithGlobalMemoryBudget(b.w.budget, b.spill))
	}
	s := raven.NewSession(opts...)
	for _, p := range b.in.tables {
		if _, err := s.RegisterTableCSV(p); err != nil {
			return nil, fmt.Errorf("registering %s: %w", filepath.Base(p), err)
		}
	}
	if _, err := s.RegisterModelFile(b.in.model); err != nil {
		return nil, fmt.Errorf("registering model: %w", err)
	}
	return s, nil
}

// runText is the measured path of one text: SQL text in, last CSV byte out.
func runText(ctx context.Context, s *raven.Session, sql string) (*raven.Result, *sink, error) {
	res, err := s.QueryContext(ctx, sql)
	if err != nil {
		return nil, nil, err
	}
	out := newSink()
	if err := data.WriteCSV(res.Table, out); err != nil {
		return nil, nil, err
	}
	return res, out, nil
}

// cycleOp runs every text of the cycle once, in order: one closed-loop op.
func (b *bench) cycleOp(ctx context.Context, t *tally) {
	t.ops++
	start := time.Now()
	ok := true
	for i, tx := range b.in.cycle {
		res, out, err := runText(ctx, b.s, tx.sql)
		if err != nil {
			t.fail("text %d: %v", i, err)
			ok = false
			continue
		}
		t.note(i, res, out.n)
		if want, known := b.want[tx.sql]; known && out.h.Sum64() != want {
			t.fail("text %d: result bytes differ from the verified ones", i)
			ok = false
		}
	}
	if ok {
		t.lat = append(t.lat, ms(time.Since(start)))
	}
}

// pointOp looks one key up; latency runs from the due time, so a stall
// charges the ops queued behind it.
func (b *bench) pointOp(ctx context.Context, key int, due time.Time, t *tally) {
	t.ops++
	res, out, err := runText(ctx, b.s, pointQuery(b.in.pipe.Name, key))
	if err != nil {
		t.fail("key %d: %v", key, err)
		return
	}
	t.note(0, res, out.n)
	if err := isPointAnswer(res.Table, key); err != nil {
		t.fail("key %d: %v", key, err)
		return
	}
	t.lat = append(t.lat, ms(time.Since(due)))
}

// warmUp runs the untimed ops that end set-up.
func (b *bench) warmUp(ctx context.Context) error {
	var t tally
	if b.w.clients > 0 {
		b.cycleOp(ctx, &t)
	} else {
		for range warmPointOps {
			b.pointOp(ctx, b.in.nextKey(), time.Now(), &t)
		}
	}
	if len(t.failures) > 0 {
		return fmt.Errorf("warm-up: %s", t.failures[0])
	}
	return nil
}

// setUp opens a session and warms it up, reps times, and returns the
// median duration; the last session is kept. Repeating makes setup_s a
// median instead of one draw.
func (b *bench) setUp(ctx context.Context, reps int) (float64, error) {
	var secs []float64
	for range reps {
		start := time.Now()
		s, err := b.open()
		if err != nil {
			return 0, err
		}
		b.s = s
		if err := b.warmUp(ctx); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// window is what one measured window produced, counters included.
type window struct {
	tally
	elapsed      time.Duration
	hits, misses uint64
	mallocs      uint64
	allocBytes   uint64
	gcPauseNs    uint64
	spilledBytes int64 // engine-global accountant delta
	spills       int
	admittedMax  int
	peakRSSMiB   float64
	rssReset     bool
}

// measure drives the workload's load shape for d and collects the
// counters that need no tracing at the window's boundaries.
func (b *bench) measure(ctx context.Context, d time.Duration) window {
	var w window
	var m0, m1 runtime.MemStats
	h0, s0 := b.s.PlanCacheStats()
	mem0 := b.s.MemoryStats()
	stop := make(chan struct{})
	sampled := make(chan int)
	go func() { sampled <- sampleAdmitted(b.s, stop) }()
	w.rssReset = resetPeakRSS()
	runtime.ReadMemStats(&m0)

	if b.w.clients > 0 {
		w.tally, w.elapsed = b.closedLoop(ctx, d)
	} else {
		w.tally, w.elapsed = b.openLoop(ctx, d)
	}

	runtime.ReadMemStats(&m1)
	w.peakRSSMiB = peakRSSMiB()
	close(stop)
	w.admittedMax = <-sampled
	h1, s1 := b.s.PlanCacheStats()
	mem1 := b.s.MemoryStats()
	w.hits, w.misses = h1-h0, s1-s0
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	w.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	w.spilledBytes = mem1.SpilledBytes - mem0.SpilledBytes
	w.spills = mem1.Spills - mem0.Spills
	return w
}

// sampleAdmitted polls the scheduler's admitted-query count every 100 ms
// until stop closes and returns the maximum seen.
func sampleAdmitted(s *raven.Session, stop <-chan struct{}) int {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	top := 0
	for {
		select {
		case <-stop:
			return top
		case <-tick.C:
			top = max(top, s.Scheduler().Admitted())
		}
	}
}

// closedLoop runs the workload's clients, each starting its next cycle
// when the previous one completes, until d has passed. The window ends
// when the last cycle in flight completes and the returned elapsed time is
// the true one, so throughput carries no ±1-op quantization.
func (b *bench) closedLoop(ctx context.Context, d time.Duration) (tally, time.Duration) {
	tallies := make([]tally, b.w.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				b.cycleOp(ctx, &tallies[c])
			}
		}()
	}
	wg.Wait()
	return mergeAll(tallies), time.Since(start)
}

// openLoop issues one point lookup every period on a fixed schedule for
// d, whatever the engine's speed: independent users do not wait for each
// other. At most maxClients ops are in flight; an op that finds every
// worker busy waits, keeping its due time.
func (b *bench) openLoop(ctx context.Context, d time.Duration) (tally, time.Duration) {
	type job struct {
		key int
		due time.Time
	}
	jobs := make(chan job) // unbuffered: the dispatcher blocks while every worker is busy
	tallies := make([]tally, maxClients())
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[c]
			for j := range jobs {
				t.lateMs = max(t.lateMs, ms(time.Since(j.due)))
				b.pointOp(ctx, j.key, j.due, t)
			}
		}()
	}
	start := time.Now()
	for i := range int(d / b.w.period) {
		due := start.Add(time.Duration(i) * b.w.period)
		time.Sleep(time.Until(due))
		jobs <- job{key: b.in.nextKey(), due: due}
	}
	close(jobs)
	wg.Wait()
	return mergeAll(tallies), time.Since(start)
}

// hygiene returns what the engine left behind after the window: each
// entry is one failed assertion.
func (b *bench) hygiene(w *window) []string {
	var bad []string
	if ents, err := os.ReadDir(b.spill); err != nil {
		bad = append(bad, fmt.Sprintf("spill directory: %v", err))
	} else if len(ents) > 0 {
		bad = append(bad, fmt.Sprintf("spill directory holds %d files after the window", len(ents)))
	}
	if r := b.s.MemoryStats().ReservedBytes; r != 0 {
		bad = append(bad, fmt.Sprintf("%d budget bytes still reserved", r))
	}
	if a := b.s.Scheduler().Admitted(); a != 0 {
		bad = append(bad, fmt.Sprintf("%d queries still admitted", a))
	}
	for i, v := range w.spilled {
		switch {
		case b.w.budget == 0 && v != 0:
			bad = append(bad, fmt.Sprintf("text %d spilled %d bytes without a budget", i, v))
		case b.w.budget > 0 && v == 0:
			bad = append(bad, fmt.Sprintf("text %d never spilled under the %d-byte budget", i, b.w.budget))
		}
	}
	if b.w.budget == 0 && w.spilledBytes != 0 {
		bad = append(bad, fmt.Sprintf("accountant counted %d spilled bytes without a budget", w.spilledBytes))
	}
	return bad
}

// releaseMemory returns freed heap to the OS so that what the generator
// and the reference session used does not count as the engine's.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
