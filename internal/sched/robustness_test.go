package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdmitContextImmediateGrant(t *testing.T) {
	s := New(2)
	defer s.Close()
	release, err := s.AdmitContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Admitted(); got != 1 {
		t.Fatalf("Admitted = %d, want 1", got)
	}
	release()
	release() // idempotent
	if got := s.Admitted(); got != 0 {
		t.Fatalf("Admitted after release = %d, want 0", got)
	}
}

func TestAdmitContextAlreadyCanceled(t *testing.T) {
	s := New(1)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.AdmitContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("AdmitContext = %v, want context.Canceled", err)
	}
	if got := s.Admitted(); got != 0 {
		t.Fatalf("Admitted = %d, want 0", got)
	}
}

func TestAdmitContextCancelWhileWaiting(t *testing.T) {
	s := New(1)
	defer s.Close()
	s.SetAdmissionLimit(1)
	hold := s.Admit()
	defer hold()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.AdmitContext(ctx)
		errc <- err
	}()
	// The waiter must be parked, not failing fast.
	select {
	case err := <-errc:
		t.Fatalf("AdmitContext returned %v before cancel", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("AdmitContext = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter never woke up")
	}
	if got := s.Admitted(); got != 1 {
		t.Fatalf("Admitted = %d, want 1 (only the held slot)", got)
	}
}

func TestAdmitContextOverloadedAfterWait(t *testing.T) {
	s := New(1)
	defer s.Close()
	s.SetAdmissionLimit(1)
	s.SetAdmitWait(30 * time.Millisecond)
	hold := s.Admit()
	defer hold()
	start := time.Now()
	_, err := s.AdmitContext(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("AdmitContext = %v, want ErrOverloaded", err)
	}
	if wait := time.Since(start); wait > 2*time.Second {
		t.Fatalf("overload rejection took %v, want a bounded wait", wait)
	}
}

func TestAdmitContextWakesOnRelease(t *testing.T) {
	s := New(1)
	defer s.Close()
	s.SetAdmissionLimit(1)
	// A long admit wait must not matter when a slot frees first.
	s.SetAdmitWait(time.Minute)
	hold := s.Admit()
	errc := make(chan error, 1)
	go func() {
		release, err := s.AdmitContext(context.Background())
		if err == nil {
			release()
		}
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	hold()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("AdmitContext = %v after slot freed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never admitted after release")
	}
	if got := s.Admitted(); got != 0 {
		t.Fatalf("Admitted = %d, want 0", got)
	}
}

func TestJobDrainWaitsForRunningTasks(t *testing.T) {
	s := New(2)
	defer s.Close()
	// Per-job cap 1: the tasks queued behind the running one cannot be
	// dispatched to the idle worker before Drain gets to drop them.
	j := s.NewJob(1)
	gate := make(chan struct{})
	var started, ran atomic.Int64
	j.Submit(func() {
		started.Add(1)
		<-gate
		ran.Add(1)
	})
	// Wait until the task is actually running so Drain has something
	// in flight to wait for.
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Queue more work behind it; Drain must drop it, not run it.
	var dropped atomic.Int64
	j.Submit(func() { dropped.Add(1); <-gate })
	j.Submit(func() { dropped.Add(1); <-gate })

	drained := make(chan struct{})
	go func() {
		j.Drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while a task was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("Drain never returned after the running task finished")
	}
	if ran.Load() != 1 {
		t.Fatalf("running task did not finish before Drain returned (ran=%d)", ran.Load())
	}
	// Give any wrongly-dispatched queued task a moment to show up.
	time.Sleep(20 * time.Millisecond)
	if dropped.Load() != 0 {
		t.Fatalf("Drain ran %d queued task(s), want 0", dropped.Load())
	}
}

func TestRunTaskPanicBackstop(t *testing.T) {
	s := New(2)
	defer s.Close()
	j := s.NewJob(2)
	j.Submit(func() { panic("raw task escaped its recover") })
	var ran atomic.Int64
	done := make(chan struct{})
	j.Submit(func() { ran.Add(1); close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("pool stopped dispatching after a task panic")
	}
	j.Wait()
	if got := s.Recovered(); got != 1 {
		t.Fatalf("Recovered = %d, want 1", got)
	}
	if ran.Load() != 1 {
		t.Fatalf("follow-up task ran %d times, want 1", ran.Load())
	}
}
