package server

import (
	"context"
	"sync"
	"testing"
	"time"
)

func newTestAdmission(concurrent, queue int, maxWait time.Duration) (*admission, *Metrics) {
	m := &Metrics{}
	return newAdmission(concurrent, queue, maxWait, m), m
}

func TestAdmissionFastPath(t *testing.T) {
	a, m := newTestAdmission(2, 4, time.Second)
	rel1, rej := a.Acquire(context.Background(), ClassInteractive)
	if rej != nil {
		t.Fatalf("rejected with free slots: %+v", rej)
	}
	rel2, rej := a.Acquire(context.Background(), ClassInteractive)
	if rej != nil {
		t.Fatalf("rejected with one slot left: %+v", rej)
	}
	if got := m.InFlight.Load(); got != 2 {
		t.Fatalf("in-flight gauge = %d, want 2", got)
	}
	rel1()
	rel2()
	if got := m.InFlight.Load(); got != 0 {
		t.Fatalf("in-flight gauge after release = %d, want 0", got)
	}
	if m.Queued.Load() != 0 {
		t.Fatal("fast-path admissions counted as queued")
	}
}

func TestAdmissionQueueFullSheds(t *testing.T) {
	a, m := newTestAdmission(1, 1, time.Second)
	relHold, rej := a.Acquire(context.Background(), ClassInteractive)
	if rej != nil {
		t.Fatal("first acquire rejected")
	}

	// One waiter fills the queue...
	var wg sync.WaitGroup
	wg.Add(1)
	waiterIn := make(chan struct{})
	go func() {
		defer wg.Done()
		close(waiterIn)
		rel, rej := a.Acquire(context.Background(), ClassInteractive)
		if rej != nil {
			t.Errorf("queued waiter rejected: %+v", rej)
			return
		}
		rel()
	}()
	<-waiterIn
	waitForQueueDepth(t, m, 1)

	// ...so the next request sheds as queue-full.
	_, rej = a.Acquire(context.Background(), ClassInteractive)
	if rej == nil || rej.Reason != RejectQueueFull {
		t.Fatalf("want queue-full rejection, got %+v", rej)
	}
	if rej.RetryAfter < time.Second {
		t.Fatalf("queue-full rejection without retry advice: %v", rej.RetryAfter)
	}
	if m.ShedQueueFull.Load() != 1 {
		t.Fatalf("shed counter = %d", m.ShedQueueFull.Load())
	}

	relHold() // let the waiter in
	wg.Wait()
}

func TestAdmissionDegradationLadderShedsBatchFirst(t *testing.T) {
	// Queue of 4 sheds batch past depth 2 but keeps admitting interactive.
	a, m := newTestAdmission(1, 4, 500*time.Millisecond)
	relHold, rej := a.Acquire(context.Background(), ClassInteractive)
	if rej != nil {
		t.Fatal("first acquire rejected")
	}

	// Fill the queue past the shed threshold with interactive waiters.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, rej := a.Acquire(context.Background(), ClassInteractive)
			if rej == nil {
				rel()
			}
		}()
	}
	waitForQueueDepth(t, m, 3)

	// Batch sheds at this depth; interactive still queues.
	_, rej = a.Acquire(context.Background(), ClassBatch)
	if rej == nil || rej.Reason != RejectDegraded {
		t.Fatalf("want degraded-mode batch shed, got %+v", rej)
	}
	if m.ShedDegraded.Load() != 1 {
		t.Fatalf("degraded counter = %d", m.ShedDegraded.Load())
	}

	relHold()
	wg.Wait()
}

func TestAdmissionDeadlineExpiresInQueue(t *testing.T) {
	a, m := newTestAdmission(1, 4, time.Minute)
	relHold, _ := a.Acquire(context.Background(), ClassInteractive)
	defer relHold()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, rej := a.Acquire(ctx, ClassInteractive)
	if rej == nil || rej.Reason != RejectDeadline {
		t.Fatalf("want deadline rejection, got %+v", rej)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline rejection took far longer than the deadline")
	}
	if m.ShedDeadline.Load() != 1 {
		t.Fatalf("deadline-shed counter = %d", m.ShedDeadline.Load())
	}
}

func TestAdmissionDeadlineTooTightRejectsBeforeQueueing(t *testing.T) {
	a, m := newTestAdmission(1, 4, time.Minute)
	// Teach the EWMA that evaluations take ~200ms.
	for i := 0; i < 10; i++ {
		a.observeLatency(200 * time.Millisecond)
	}
	relHold, _ := a.Acquire(context.Background(), ClassInteractive)
	defer relHold()

	// 10ms of deadline cannot survive a ~200ms estimated wait: the
	// rejection must be immediate (no queue slot consumed).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, rej := a.Acquire(ctx, ClassInteractive)
	if rej == nil || rej.Reason != RejectDeadline {
		t.Fatalf("want pre-queue deadline rejection, got %+v", rej)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("pre-queue rejection waited %v", elapsed)
	}
	if m.QueueDepth.Load() != 0 {
		t.Fatal("rejected request left the queue-depth gauge nonzero")
	}
}

func TestAdmissionWaitTimeout(t *testing.T) {
	a, m := newTestAdmission(1, 4, 20*time.Millisecond)
	relHold, _ := a.Acquire(context.Background(), ClassInteractive)
	defer relHold()

	_, rej := a.Acquire(context.Background(), ClassInteractive)
	if rej == nil || rej.Reason != RejectWaitTimeout {
		t.Fatalf("want wait-timeout rejection, got %+v", rej)
	}
	if m.ShedWaitTimeout.Load() != 1 {
		t.Fatalf("wait-timeout counter = %d", m.ShedWaitTimeout.Load())
	}
}

func TestAdmissionDrainingRejectsEverything(t *testing.T) {
	a, m := newTestAdmission(2, 4, time.Second)
	a.beginDrain()
	_, rej := a.Acquire(context.Background(), ClassInteractive)
	if rej == nil || rej.Reason != RejectDraining {
		t.Fatalf("want draining rejection, got %+v", rej)
	}
	if m.ShedDraining.Load() != 1 {
		t.Fatalf("draining counter = %d", m.ShedDraining.Load())
	}
}

func TestAdmissionDrainWakesQueuedWaiters(t *testing.T) {
	a, _ := newTestAdmission(1, 4, time.Minute)
	relHold, _ := a.Acquire(context.Background(), ClassInteractive)
	defer relHold()

	got := make(chan *Rejection, 1)
	go func() {
		_, rej := a.Acquire(context.Background(), ClassInteractive)
		got <- rej
	}()
	time.Sleep(10 * time.Millisecond)
	a.beginDrain()
	select {
	case rej := <-got:
		if rej == nil || rej.Reason != RejectDraining {
			t.Fatalf("queued waiter got %+v, want draining rejection", rej)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain did not wake the queued waiter")
	}
}

func waitForQueueDepth(t *testing.T, m *Metrics, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if m.QueueDepth.Load() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue depth never reached %d (at %d)", want, m.QueueDepth.Load())
}
