package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestInjectorIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []Fault {
		inj := New(seed, 0.3).Transient(0.5)
		for i := 0; i < 200; i++ {
			_ = inj.Hit("op")
		}
		return inj.Faults()
	}
	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatal("rate 0.3 over 200 ops should inject something")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d faults", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if c := run(7); len(c) == len(a) {
		// Different seeds will almost surely inject different counts; a
		// collision here is fine as long as the sequences differ somewhere.
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical fault sequences")
		}
	}
}

func TestInjectorRateZeroNeverFails(t *testing.T) {
	inj := New(1, 0)
	for i := 0; i < 100; i++ {
		if err := inj.Hit("op"); err != nil {
			t.Fatalf("rate 0 injected a fault: %v", err)
		}
	}
	if n := inj.FailureCount(); n != 0 {
		t.Fatalf("FailureCount = %d", n)
	}
}

func TestInjectorRateOneAlwaysFails(t *testing.T) {
	inj := New(1, 1)
	for i := 0; i < 50; i++ {
		if err := inj.Hit("op"); err == nil {
			t.Fatal("rate 1 let an operation through")
		}
	}
	if n := inj.FailureCount(); n != 50 {
		t.Fatalf("FailureCount = %d, want 50", n)
	}
}

func TestLatencyUsesInjectedClock(t *testing.T) {
	var slept []time.Duration
	inj := New(3, 0).Latency(1, 40*time.Millisecond).
		SetSleep(func(d time.Duration) { slept = append(slept, d) })
	for i := 0; i < 5; i++ {
		if err := inj.Hit("op"); err != nil {
			t.Fatal(err)
		}
	}
	if len(slept) != 5 {
		t.Fatalf("expected 5 stalls, got %d", len(slept))
	}
	for _, d := range slept {
		if d != 40*time.Millisecond {
			t.Fatalf("stalled %v, want 40ms", d)
		}
	}
}

func TestRetryClearsTransientFaults(t *testing.T) {
	tries := 0
	err := Retry(Backoff{Attempts: 5, Sleep: func(time.Duration) {}}, func() error {
		tries++
		if tries < 3 {
			return &FaultError{Op: "op", Transient: true}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry should have succeeded: %v", err)
	}
	if tries != 3 {
		t.Fatalf("tries = %d, want 3", tries)
	}
}

func TestRetryDoesNotRetryPermanentFaults(t *testing.T) {
	tries := 0
	perm := &FaultError{Op: "op"}
	err := Retry(Backoff{Attempts: 5, Sleep: func(time.Duration) {}}, func() error {
		tries++
		return perm
	})
	if err != perm || tries != 1 {
		t.Fatalf("permanent fault retried: tries=%d err=%v", tries, err)
	}
	// Uninjected errors are also permanent from Retry's point of view.
	io := errors.New("disk on fire")
	tries = 0
	err = Retry(Backoff{Attempts: 5, Sleep: func(time.Duration) {}}, func() error {
		tries++
		return io
	})
	if err != io || tries != 1 {
		t.Fatalf("plain error retried: tries=%d err=%v", tries, err)
	}
}

func TestRetryExhaustsAttemptsWithBackoff(t *testing.T) {
	var delays []time.Duration
	tries := 0
	err := Retry(Backoff{Attempts: 4, Base: 10 * time.Millisecond,
		Sleep: func(d time.Duration) { delays = append(delays, d) }},
		func() error {
			tries++
			return &FaultError{Op: "op", Transient: true}
		})
	if !IsTransient(err) {
		t.Fatalf("exhausted retry should surface the last fault, got %v", err)
	}
	if tries != 4 {
		t.Fatalf("tries = %d, want 4", tries)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(delays) != len(want) {
		t.Fatalf("delays = %v", delays)
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("delay %d = %v, want %v (exponential)", i, delays[i], want[i])
		}
	}
}
