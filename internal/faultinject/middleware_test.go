package faultinject

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	b := Backoff{Attempts: 6, Base: 10 * time.Millisecond, Max: 40 * time.Millisecond, Jitter: 0.5, Seed: 42}
	first := b.delays()
	second := b.delays()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", first, second)
	}
	if len(first) != 5 {
		t.Fatalf("want 5 delays for 6 attempts, got %d", len(first))
	}
	// Unjittered schedule would be 10, 20, 40, 40, 40 (capped); jitter may
	// shave up to half off each but never add.
	caps := []time.Duration{10, 20, 40, 40, 40}
	for i, d := range first {
		hi := caps[i] * time.Millisecond
		lo := hi / 2
		if d < lo || d > hi {
			t.Errorf("delay[%d] = %v outside jitter bounds [%v, %v]", i, d, lo, hi)
		}
	}
	// A different seed gives a different (still bounded) schedule.
	b2 := b
	b2.Seed = 43
	if reflect.DeepEqual(first, b2.delays()) {
		t.Error("different seeds produced identical jittered schedules")
	}
}

func TestBackoffZeroJitterKeepsLegacySchedule(t *testing.T) {
	b := Backoff{Attempts: 4, Base: time.Millisecond}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if got := b.delays(); !reflect.DeepEqual(got, want) {
		t.Fatalf("unjittered schedule changed: got %v want %v", got, want)
	}
}

func TestRetrySleepsTheSchedule(t *testing.T) {
	var slept []time.Duration
	b := Backoff{Attempts: 4, Base: 8 * time.Millisecond, Max: 16 * time.Millisecond,
		Jitter: 0.25, Seed: 7, Sleep: func(d time.Duration) { slept = append(slept, d) }}
	calls := 0
	err := Retry(b, func() error {
		calls++
		return &FaultError{Op: "x", Transient: true}
	})
	if err == nil || calls != 4 {
		t.Fatalf("want 4 exhausted attempts, got calls=%d err=%v", calls, err)
	}
	if want := b.delays(); !reflect.DeepEqual(slept, want) {
		t.Fatalf("slept %v, schedule says %v", slept, want)
	}
}

func TestHandlerMiddlewareInjectsStructuredErrors(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("x", 400))
	})
	inj := New(1, 0.5).Transient(0.5)
	h := Handler(inner, inj)

	sawFault, sawOK := false, false
	for i := 0; i < 64; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/q", nil))
		switch rec.Code {
		case http.StatusOK:
			sawOK = true
		case http.StatusServiceUnavailable:
			sawFault = true
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("injected 503 without Retry-After")
			}
			var body struct {
				Error struct {
					Code      string `json:"code"`
					Retryable bool   `json:"retryable"`
				} `json:"error"`
				RetryAfterMs int64 `json:"retry_after_ms"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("injected 503 body not JSON: %v (%q)", err, rec.Body.String())
			}
			if body.Error.Code != "FAULT0001" || body.RetryAfterMs <= 0 {
				t.Fatalf("bad injected error body: %+v", body)
			}
		default:
			t.Fatalf("unexpected status %d", rec.Code)
		}
	}
	if !sawFault || !sawOK {
		t.Fatalf("wanted a mix of faults and successes, got fault=%v ok=%v", sawFault, sawOK)
	}
}

func TestHandlerMiddlewarePartialTruncates(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("y", 400))
	})
	inj := New(3, 0).Partial(1.0) // every response truncated
	h := Handler(inner, inj)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/q", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("partial fault changed status: %d", rec.Code)
	}
	if got := rec.Body.Len(); got != partialBytes {
		t.Fatalf("partial response let %d bytes through, want %d", got, partialBytes)
	}
}

func TestDecideDeterministicPerSeed(t *testing.T) {
	run := func() []Fault {
		inj := New(99, 0.3).Transient(0.5).Partial(0.2)
		for i := 0; i < 50; i++ {
			inj.Decide("op")
		}
		return inj.Faults()
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("same seed produced different fault sequences")
	}
}
