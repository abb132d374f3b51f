package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded is returned by AdmitContext when the bounded admission
// wait elapses with every query slot still occupied. Front ends should map
// it to a retryable "come back later" response rather than queueing.
var ErrOverloaded = errors.New("sched: overloaded, no query slot available")

// Task is one unit of scheduled work (one morsel through one chain clone).
type Task func()

// Scheduler multiplexes tasks from many jobs over a fixed worker pool.
type Scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond // workers wait here for runnable tasks
	jobs   []*Job     // round-robin ring of registered jobs
	rr     int        // next ring position to scan from
	closed bool

	workers int
	wg      sync.WaitGroup

	// Query admission: a counting semaphore bounding concurrent parallel
	// queries. Held by the query thread for the duration of Execute, never
	// by workers, so it cannot deadlock with task scheduling.
	admitCond *sync.Cond
	admitCap  int
	admitted  int
	admitWait time.Duration // 0 = AdmitContext waits until ctx is done

	// recovered counts task panics absorbed by the worker backstop. Tasks
	// are expected to recover their own panics and surface them as query
	// errors; this counter catching a panic means a raw task escaped that
	// discipline (it still must not kill the shared worker).
	recovered atomic.Int64
}

// New creates a scheduler with the given number of workers (minimum 1) and
// an admission cap of max(4, 2*workers) concurrent parallel queries.
func New(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{workers: workers, admitCap: max(4, 2*workers)}
	s.cond = sync.NewCond(&s.mu)
	s.admitCond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.runWorker()
	}
	return s
}

var (
	defaultOnce sync.Once
	defaultSch  *Scheduler
)

// Default returns the process-wide shared scheduler, created lazily with
// one worker per CPU. All queries that do not override Profile.Sched run
// their morsels on this single bounded pool.
func Default() *Scheduler {
	defaultOnce.Do(func() { defaultSch = New(runtime.NumCPU()) })
	return defaultSch
}

// Workers returns the fixed pool size.
func (s *Scheduler) Workers() int { return s.workers }

// AdmitCap returns the current admission cap — the most queries that can
// be in flight at once. The engine's global memory budget divides by it
// to derive each query's guaranteed resident floor.
func (s *Scheduler) AdmitCap() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitCap
}

// SetAdmissionLimit changes the admission cap (minimum 1).
func (s *Scheduler) SetAdmissionLimit(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.admitCap = n
	s.mu.Unlock()
	s.admitCond.Broadcast()
}

// SetAdmitWait bounds how long AdmitContext blocks for a free query slot
// before giving up with ErrOverloaded. Zero (the default) keeps the
// original semantics: wait until a slot frees or the context is done.
func (s *Scheduler) SetAdmitWait(d time.Duration) {
	s.mu.Lock()
	s.admitWait = d
	s.mu.Unlock()
}

// Admit blocks until a query slot is free and returns its release func.
// The release func is idempotent.
func (s *Scheduler) Admit() func() {
	s.mu.Lock()
	for s.admitted >= s.admitCap && !s.closed {
		s.admitCond.Wait()
	}
	s.admitted++
	s.mu.Unlock()
	return s.releaseFunc()
}

// AdmitContext is Admit with cooperative cancellation and (when an admit
// wait is configured) bounded queueing: it returns ctx.Err() if the
// context is done first, and ErrOverloaded if the admit wait elapses with
// all slots still held. On success the returned release func is idempotent
// and must be called exactly like Admit's.
func (s *Scheduler) AdmitContext(ctx context.Context) (func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.admitted < s.admitCap || s.closed {
		s.admitted++
		s.mu.Unlock()
		return s.releaseFunc(), nil
	}
	// Slow path: arrange wakeups for the two external events the cond var
	// cannot see. Both callbacks take s.mu before broadcasting so the flag
	// write / ctx.Err() transition cannot land between a waiter's predicate
	// check and its cond.Wait (the classic missed-wakeup race).
	var timedOut bool
	if wait := s.admitWait; wait > 0 {
		timer := time.AfterFunc(wait, func() {
			s.mu.Lock()
			timedOut = true
			s.mu.Unlock()
			s.admitCond.Broadcast()
		})
		defer timer.Stop()
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			//lint:ignore SA2001 empty critical section orders the broadcast
			// after any waiter mid-predicate reaches admitCond.Wait.
			s.mu.Unlock()
			s.admitCond.Broadcast()
		})
		defer stop()
	}
	for s.admitted >= s.admitCap && !s.closed {
		if err := ctx.Err(); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if timedOut {
			s.mu.Unlock()
			return nil, ErrOverloaded
		}
		s.admitCond.Wait()
	}
	s.admitted++
	s.mu.Unlock()
	return s.releaseFunc(), nil
}

// releaseFunc builds the idempotent slot-release closure shared by Admit
// and AdmitContext. The caller must already hold the slot.
func (s *Scheduler) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.admitted--
			s.mu.Unlock()
			s.admitCond.Signal()
		})
	}
}

// Admitted returns the number of currently admitted queries.
func (s *Scheduler) Admitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitted
}

// Close stops the workers after the currently running tasks finish. Queued
// tasks are dropped. Only tests close schedulers; Default lives forever.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	for _, j := range s.jobs {
		j.queue = nil
		j.canceled = true
	}
	s.jobs = nil
	s.mu.Unlock()
	s.cond.Broadcast()
	s.admitCond.Broadcast()
	s.wg.Wait()
}

// Job is one plan segment's stream of tasks. At most MaxPar of its tasks
// run concurrently (the segment owns MaxPar chain clones), and its queued
// tasks compete fairly with every other job's.
type Job struct {
	s        *Scheduler
	queue    []Task
	head     int // queue[head:] are pending (amortized O(1) pop-front)
	running  int
	maxPar   int
	canceled bool
	done     *sync.Cond // waiters for quiescence (running==0, no queue)
}

// NewJob registers a job with the given per-job parallelism cap (min 1).
func (s *Scheduler) NewJob(maxPar int) *Job {
	if maxPar < 1 {
		maxPar = 1
	}
	j := &Job{s: s, maxPar: maxPar}
	j.done = sync.NewCond(&s.mu)
	s.mu.Lock()
	s.jobs = append(s.jobs, j)
	s.mu.Unlock()
	return j
}

// Submit queues one task. Submissions after Cancel are dropped.
func (j *Job) Submit(t Task) {
	s := j.s
	s.mu.Lock()
	if j.canceled || s.closed {
		s.mu.Unlock()
		return
	}
	j.queue = append(j.queue, t)
	s.mu.Unlock()
	s.cond.Signal()
}

// Cancel drops the job's queued tasks. Running tasks finish normally.
func (j *Job) Cancel() {
	s := j.s
	s.mu.Lock()
	j.canceled = true
	j.queue, j.head = nil, 0
	if j.running == 0 {
		j.done.Broadcast()
	}
	s.mu.Unlock()
}

// Wait blocks until the job is quiescent (no queued or running tasks) and
// deregisters it from the scheduler. After Wait the job accepts no tasks.
func (j *Job) Wait() {
	s := j.s
	s.mu.Lock()
	for (j.running > 0 || j.pendingLocked() > 0) && !s.closed {
		j.done.Wait()
	}
	j.canceled = true
	j.queue, j.head = nil, 0
	j.deregisterLocked()
	s.mu.Unlock()
}

// Drain cancels the job's queued tasks, waits for its in-flight tasks to
// finish, and deregisters the job. Unlike Cancel (which returns while
// tasks may still be running), after Drain no task of this job can be
// touching shared state, so Close paths may safely free operator state.
func (j *Job) Drain() {
	s := j.s
	s.mu.Lock()
	j.canceled = true
	j.queue, j.head = nil, 0
	for j.running > 0 && !s.closed {
		j.done.Wait()
	}
	j.deregisterLocked()
	s.mu.Unlock()
}

// deregisterLocked removes the job from the scheduler ring (idempotent).
func (j *Job) deregisterLocked() {
	s := j.s
	for i, other := range s.jobs {
		if other == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			if s.rr > i {
				s.rr--
			}
			break
		}
	}
}

func (j *Job) pendingLocked() int { return len(j.queue) - j.head }

// runWorker is the worker loop: pick a task from a runnable job
// round-robin, run it, repeat.
func (s *Scheduler) runWorker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return
		}
		t, j := s.pickLocked()
		if t == nil {
			s.cond.Wait()
			continue
		}
		s.mu.Unlock()
		s.runTask(t)
		s.mu.Lock()
		j.running--
		if j.running == 0 && (j.pendingLocked() == 0 || j.canceled) {
			j.done.Broadcast()
		}
		// The freed per-job slot may make one of this job's queued tasks
		// runnable for an idle worker.
		if j.pendingLocked() > 0 {
			s.cond.Signal()
		}
	}
}

// runTask runs one task behind the worker panic backstop. The exchange
// protocol recovers task panics itself and reports them as the owning
// query's error; this backstop only exists so a raw task that escapes that
// discipline poisons its own query, not the shared pool — without it one
// panic would kill a worker goroutine for every other in-flight query.
func (s *Scheduler) runTask(t Task) {
	defer func() {
		if r := recover(); r != nil {
			s.recovered.Add(1)
		}
	}()
	t()
}

// Recovered reports how many task panics the worker backstop absorbed.
func (s *Scheduler) Recovered() int64 { return s.recovered.Load() }

// pickLocked scans the job ring from the round-robin cursor and claims the
// first runnable task (queued work, per-job cap not reached).
func (s *Scheduler) pickLocked() (Task, *Job) {
	n := len(s.jobs)
	for i := 0; i < n; i++ {
		idx := (s.rr + i) % n
		j := s.jobs[idx]
		if j.pendingLocked() > 0 && j.running < j.maxPar {
			t := j.queue[j.head]
			j.queue[j.head] = nil
			j.head++
			if j.head == len(j.queue) {
				j.queue, j.head = j.queue[:0], 0
			}
			j.running++
			s.rr = (idx + 1) % n
			return t, j
		}
	}
	return nil, nil
}
