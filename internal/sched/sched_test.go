package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestJobRunsAllTasks(t *testing.T) {
	s := New(4)
	defer s.Close()
	j := s.NewJob(4)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		j.Submit(func() { n.Add(1) })
	}
	j.Wait()
	if got := n.Load(); got != 100 {
		t.Fatalf("ran %d tasks, want 100", got)
	}
}

func TestPerJobParallelismCap(t *testing.T) {
	s := New(8)
	defer s.Close()
	j := s.NewJob(2)
	var cur, peak atomic.Int64
	for i := 0; i < 40; i++ {
		j.Submit(func() {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
	}
	j.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d exceeds job cap 2", p)
	}
}

// TestRoundRobinFairness pins the scheduling order with a single worker:
// after a gate task releases, queued tasks from two jobs must alternate
// (A, B, A, B, ...) rather than draining job A first.
func TestRoundRobinFairness(t *testing.T) {
	s := New(1)
	defer s.Close()
	a := s.NewJob(1)
	b := s.NewJob(1)
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	a.Submit(func() { <-gate })
	// The single worker is parked in the gate task; everything below
	// queues up before any of it runs.
	for i := 0; i < 3; i++ {
		a.Submit(func() {
			mu.Lock()
			order = append(order, "a")
			mu.Unlock()
		})
		b.Submit(func() {
			mu.Lock()
			order = append(order, "b")
			mu.Unlock()
		})
	}
	// Wait for the gate task to actually start so no queued task can
	// sneak in ahead of it.
	for {
		s.mu.Lock()
		running := a.running
		s.mu.Unlock()
		if running > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	a.Wait()
	b.Wait()
	mu.Lock()
	defer mu.Unlock()
	want := []string{"b", "a", "b", "a", "b", "a"}
	if len(order) != len(want) {
		t.Fatalf("ran %d tasks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want alternating %v (long job starves short job)", order, want)
		}
	}
}

func TestCancelDropsQueuedTasks(t *testing.T) {
	s := New(1)
	defer s.Close()
	j := s.NewJob(1)
	gate := make(chan struct{})
	var ran atomic.Int64
	j.Submit(func() { <-gate; ran.Add(1) })
	for i := 0; i < 50; i++ {
		j.Submit(func() { ran.Add(1) })
	}
	for {
		s.mu.Lock()
		running := j.running
		s.mu.Unlock()
		if running > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	j.Cancel()
	close(gate)
	j.Wait()
	if got := ran.Load(); got != 1 {
		t.Fatalf("ran %d tasks after cancel, want 1 (only the in-flight one)", got)
	}
	// Post-cancel submissions are dropped.
	j.Submit(func() { ran.Add(1) })
	j.Wait()
	if got := ran.Load(); got != 1 {
		t.Fatalf("post-cancel submit ran, total %d", got)
	}
}

func TestAdmissionBoundsConcurrentQueries(t *testing.T) {
	s := New(2)
	defer s.Close()
	s.SetAdmissionLimit(2)
	r1 := s.Admit()
	r2 := s.Admit()
	third, released := make(chan struct{}), make(chan struct{})
	go func() {
		r := s.Admit()
		close(third)
		r()
		close(released)
	}()
	select {
	case <-third:
		t.Fatal("third query admitted past the limit")
	case <-time.After(20 * time.Millisecond):
	}
	r1()
	select {
	case <-third:
	case <-time.After(2 * time.Second):
		t.Fatal("third query not admitted after a release")
	}
	r2()
	r2() // release is idempotent
	<-released
	if got := s.Admitted(); got != 0 {
		t.Fatalf("admitted = %d after all releases, want 0", got)
	}
}

func TestManyJobsShareOnePool(t *testing.T) {
	s := New(4)
	defer s.Close()
	var wg sync.WaitGroup
	var n atomic.Int64
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := s.NewJob(4)
			for i := 0; i < 25; i++ {
				j.Submit(func() { n.Add(1) })
			}
			j.Wait()
		}()
	}
	wg.Wait()
	if got := n.Load(); got != 200 {
		t.Fatalf("ran %d tasks, want 200", got)
	}
}
