package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"raven/internal/data"
	"raven/internal/mlruntime"
	"raven/internal/sched"
)

// runWorkload makes one run of one workload with inputs generated from
// seed under dir. An untraced run measures the end-to-end metrics over
// window. A traced run spends a third of window on the same load shape,
// for the counters that need the real concurrency, and the rest on a
// single-client pass that alternates an op through the session with the
// same op driven by hand under spans; it returns those spans.
func runWorkload(ctx context.Context, w workload, seed int64, window time.Duration, traced bool, dir string) (*result, []span, error) {
	b := &bench{w: w, spill: filepath.Join(dir, "spill")}
	if err := os.MkdirAll(b.spill, 0o755); err != nil {
		return nil, nil, err
	}
	genStart := time.Now()
	in, err := generate(w, seed, dir)
	if err != nil {
		return nil, nil, err
	}
	b.in = in
	genS := time.Since(genStart).Seconds()

	reps := setUpReps
	if traced {
		reps = 1 // setup_s is an untraced metric
	}
	releaseMemory()
	setupS, err := b.setUp(ctx, reps)
	if err != nil {
		return nil, nil, err
	}
	checked, bad, err := b.verify(ctx)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Workload: w.name, Traced: traced, Attempted: checked, Failures: bad,
		InputSHA256: in.sha256, Metrics: map[string]metric{}, Info: map[string]metric{}}
	res.Info["gen_s"] = metric{genS, "s"}

	var spans []span
	if traced {
		spans, err = b.tracedRun(ctx, window, res)
		if err != nil {
			return nil, nil, err
		}
	} else {
		releaseMemory()
		win := b.measure(ctx, window)
		b.book(&win, res)
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["op_ms_p50"] = metric{median(win.lat), "ms"}
		res.Metrics["ops_per_s"] = metric{float64(len(win.lat)) / win.elapsed.Seconds(), "1/s"}
		res.Metrics["peak_rss_mb"] = metric{win.peakRSSMiB, "MiB"}
		res.RSSReset = win.rssReset
		if p90, ok := percentile(win.lat, 0.90); ok {
			res.Info["op_ms_p90"] = metric{p90, "ms"}
		}
		if w.clients == 0 {
			res.Info["late_ms_max"] = metric{win.lateMs, "ms"}
		}
	}
	res.Failed = len(res.Failures)
	res.Correct = res.Failed == 0
	res.Info["failed_ratio"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	res.Info["samples"] = metric{float64(res.Samples), "count"}
	return res, spans, nil
}

// book counts a window's ops, failures and hygiene assertions into res.
func (b *bench) book(win *window, res *result) {
	bad := b.hygiene(win)
	res.Attempted += win.ops
	res.Samples = len(win.lat)
	res.Failures = append(res.Failures, win.failures...)
	res.Failures = append(res.Failures, bad...)
}

// tracedRun produces the per-layer metrics into res and returns the spans.
func (b *bench) tracedRun(ctx context.Context, window time.Duration, res *result) ([]span, error) {
	h, err := newHand(b.w, b.in, b.spill)
	if err != nil {
		return nil, err
	}
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.Name == name {
				res.Metrics[name] = metric{v, d.Unit}
				return
			}
		}
		panic("undeclared per-layer metric " + name)
	}

	// Counters that only mean something under the workload's own load
	// shape come from an untraced window of a third of the time.
	win := b.measure(ctx, window/3)
	b.book(&win, res)
	ops := float64(max(win.ops, 1))
	set("raven.plancache_hit_ratio", ratio(float64(win.hits), float64(win.hits+win.misses)))
	set("mlruntime.session_reuse_ratio", 1-ratio(float64(win.cold), float64(win.sessions)))
	set("sched.admitted_max", float64(win.admittedMax))
	set("sched.recovered", float64(b.s.Scheduler().Recovered()))
	// MemStats are the whole process's: the load generator's own
	// allocations (query texts, sinks, tallies) are in there too.
	set("go.allocs_per_op", float64(win.mallocs)/ops)
	set("go.alloc_mb_per_op", float64(win.allocBytes)/(1<<20)/ops)
	set("go.gc_pause_ms", float64(win.gcPauseNs)/1e6)
	set("relational.spill_bytes_per_op", float64(win.spilledBytes)/ops)
	set("relational.spills_per_op", float64(win.spills)/ops)
	set("data.result_bytes_per_op", float64(win.bytes)/ops)

	// The traced pass: one client, session op and by-hand op in turn, so
	// that drift hits both alike and their ratio is the cost of tracing.
	tr := &tracer{t0: time.Now()}
	var plain, byHand []float64
	var perOp []layers
	fired := map[string]int{}
	var covered, tracedNs float64
	for opID := 1; time.Since(tr.t0) < window-window/3; opID++ {
		texts := b.in.cycle
		var t tally
		if b.w.clients > 0 {
			b.cycleOp(ctx, &t)
		} else {
			b.pointOp(ctx, b.in.nextKey(), time.Now(), &t)
			texts = []text{{sql: pointQuery(b.in.pipe.Name, b.in.nextKey())}} // a key of its own
		}
		res.Attempted += 2
		res.Failures = append(res.Failures, t.failures...)
		plain = append(plain, t.lat...)

		l := layers{}
		op := tr.begin(0, opID, "op")
		for i, tx := range texts {
			out, err := h.query(ctx, tr, op, opID, tx.sql, l)
			if err != nil {
				res.Failures = append(res.Failures, fmt.Sprintf("traced text %d: %v", i, err))
			} else if want, known := b.want[tx.sql]; known && out.h.Sum64() != want {
				res.Failures = append(res.Failures, fmt.Sprintf("traced text %d: result bytes differ from the verified ones", i))
			}
		}
		tr.end(op)
		byHand = append(byHand, ms(tr.dur(op)))
		tracedNs += float64(tr.dur(op))
		for _, s := range tr.spans[op:] {
			if s.Parent == op {
				covered += float64(s.EndNs - s.StartNs)
			}
		}
		for k, v := range l {
			if rule, ok := strings.CutPrefix(k, "rule:"); ok {
				fired[rule] += int(v)
			}
		}
		perOp = append(perOp, l)
	}
	res.Samples = len(perOp)
	res.RulesFired = fired
	med := func(key string) float64 {
		vals := make([]float64, len(perOp))
		for i, l := range perOp {
			vals[i] = l[key]
		}
		return median(vals)
	}
	for _, name := range []string{"sqlparse.parse_us", "sqlparse.plan_us", "opt.optimize_us", "opt.rules_fired",
		"engine.lower_us", "engine.exec_ms", "engine.predict_self_ms", "engine.predict_rows",
		"relational.scan_self_ms", "relational.join_self_ms", "relational.agg_self_ms",
		"relational.sort_self_ms", "relational.filter_project_self_ms", "data.write_csv_ms"} {
		set(name, med(name))
	}
	set("relational.exchange_busy_ratio", ratio(med("exchange_busy_ns"), med("exec_dop_ns")))
	set("relational.rows_scanned_per_result_row", ratio(med("rows_scanned"), med("result_rows")))
	set("trace.coverage", ratio(covered, tracedNs))
	set("trace.overhead_ratio", ratio(median(byHand), median(plain)))
	res.Info["relational.other_self_ms"] = metric{med("relational.other_self_ms"), "ms"}
	res.Info["traced.op_ms_p50"] = metric{median(byHand), "ms"}
	res.Info["untraced.op_ms_p50"] = metric{median(plain), "ms"}

	// Probes: one layer each, outside any query.
	set("data.csv_ingest_mb_s", h.ingestMBps)
	decodeMs, err := decodePass(h.fact)
	if err != nil {
		return nil, err
	}
	set("data.chunk_decode_ms", decodeMs)
	rate, err := predictRate(b.in, min(probeRows, b.w.rows))
	if err != nil {
		return nil, err
	}
	set("mlruntime.predict_rows_per_s", rate)
	set("sched.dispatch_us", dispatchCost())
	return tr.spans, nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// decodePass times one full DecodeRange pass over a chunked table, chunk
// by chunk, all columns.
func decodePass(ct *data.ChunkedTable) (float64, error) {
	start := time.Now()
	cache := data.NewChunkCache()
	for lo := 0; lo < ct.NumRows(); lo += data.DefaultChunkRows {
		hi := min(lo+data.DefaultChunkRows, ct.NumRows())
		if _, err := ct.DecodeRange(lo, hi, nil, cache); err != nil {
			return 0, err
		}
	}
	return ms(time.Since(start)), nil
}

// probeRows is the input size of the ML-runtime probe (every workload has
// more rows than that; the smoke test's tiny ones probe what they have).
const probeRows = 65536

// predictRate scores rows rows (the training sample, repeated) with one
// ML-runtime session on one thread and returns rows per second: the median
// of three passes after a first one that sizes the session's buffers.
func predictRate(in *inputs, rows int) (float64, error) {
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = i % in.sample.NumRows()
	}
	batch := in.sample.Gather(idx)
	s, err := mlruntime.NewSession(in.pipe)
	if err != nil {
		return 0, err
	}
	var rates []float64
	for pass := range 4 {
		start := time.Now()
		if _, err := s.PredictColumn(batch, "score"); err != nil {
			return 0, err
		}
		if pass > 0 {
			rates = append(rates, float64(rows)/time.Since(start).Seconds())
		}
	}
	return median(rates), nil
}

// dispatchTasks is how many no-op tasks the scheduler probe submits.
const dispatchTasks = 4096

// dispatchCost pushes no-op tasks through the process-wide scheduler the
// way an Exchange submits morsels and returns the cost per task in µs.
func dispatchCost() float64 {
	job := sched.Default().NewJob(maxClients())
	start := time.Now()
	for range dispatchTasks {
		job.Submit(func() {})
	}
	job.Wait()
	return us(time.Since(start)) / dispatchTasks
}

// tableName is the name a CSV registers under: its base name without the
// extension, as Session.RegisterTableCSV derives it.
func tableName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
}
