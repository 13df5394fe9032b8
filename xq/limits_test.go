package xq

import (
	"context"
	"testing"
	"time"
)

func TestWithLimitsStepsSurfaceAsLimitError(t *testing.T) {
	q, err := Compile(`for $i in 1 to 40000000 return $i * 2`,
		WithLimits(Limits{MaxSteps: 10000}))
	if err != nil {
		t.Fatal(err)
	}
	_, evalErr := q.Eval(nil, nil)
	if evalErr == nil {
		t.Fatal("expected a limit error")
	}
	if code := ErrorCode(evalErr); code != "LOPS0002" {
		t.Fatalf("ErrorCode = %q, want LOPS0002", code)
	}
	if !IsLimitError(evalErr) {
		t.Fatalf("IsLimitError(%v) = false", evalErr)
	}
}

func TestWithTimeoutBoundsEvaluation(t *testing.T) {
	const timeout = 200 * time.Millisecond
	q, err := Compile(`for $i in 1 to 40000000 return $i * 2`, WithLimits(Limits{Timeout: timeout}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, evalErr := q.Eval(nil, nil)
	elapsed := time.Since(start)
	if code := ErrorCode(evalErr); code != "LOPS0001" {
		t.Fatalf("ErrorCode = %q (%v), want LOPS0001", code, evalErr)
	}
	if elapsed > 2*timeout {
		t.Fatalf("took %v to honor a %v timeout", elapsed, timeout)
	}
}

func TestEvalContextCancellation(t *testing.T) {
	q, err := Compile(`for $i in 1 to 40000000 return $i * 2`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, evalErr := q.Eval(ctx, nil)
	if code := ErrorCode(evalErr); code != "LOPS0001" {
		t.Fatalf("ErrorCode = %q (%v), want LOPS0001", code, evalErr)
	}
}

func TestLimitsDoNotAffectNormalQueries(t *testing.T) {
	q, err := Compile(`sum(for $i in 1 to 100 return $i)`,
		WithLimits(Limits{Timeout: 5 * time.Second, MaxSteps: 1 << 20, MaxNodes: 1 << 16, MaxOutputBytes: 1 << 20}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.EvalString(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != "5050" {
		t.Fatalf("got %q", out)
	}
}

func TestErrorCodeClassification(t *testing.T) {
	// A spec dynamic error is coded but is not a limit error.
	q, err := Compile(`1 div 0`)
	if err != nil {
		t.Fatal(err)
	}
	_, evalErr := q.Eval(nil, nil)
	if code := ErrorCode(evalErr); code != "FOAR0001" {
		t.Fatalf("ErrorCode = %q, want FOAR0001", code)
	}
	if IsLimitError(evalErr) {
		t.Fatal("FOAR0001 must not classify as a limit error")
	}
	if ErrorCode(nil) != "" {
		t.Fatal("ErrorCode(nil) should be empty")
	}
}

func TestPanicContainedAtPublicBoundary(t *testing.T) {
	q, err := Compile(`trace("x")`, WithTracer(TraceFunc(func([]string) { panic("tracer bug") })))
	if err != nil {
		t.Fatal(err)
	}
	_, evalErr := q.Eval(nil, nil)
	if code := ErrorCode(evalErr); code != "LOPS0009" {
		t.Fatalf("ErrorCode = %q (%v), want LOPS0009", code, evalErr)
	}
}
