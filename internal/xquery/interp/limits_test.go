package interp

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"lopsided/internal/obs"
	"lopsided/internal/xdm"
	"lopsided/internal/xquery/parser"
)

// evalLimited compiles src and evaluates it under the given limits,
// returning the error (nil means the query completed).
func evalLimited(t *testing.T, src string, lim Limits, opts Options) error {
	t.Helper()
	opts.Limits = lim
	p, err := compileSrc(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	_, err = p.Eval(context.Background(), nil, nil, opts)
	return err
}

func wantCode(t *testing.T, err error, code string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected %s error, got success", code)
	}
	var got string
	switch e := err.(type) {
	case *Error:
		got = e.Code
	case *xdm.Error:
		got = e.Code
	default:
		t.Fatalf("expected coded %s error, got %T: %v", code, err, err)
	}
	if got != code {
		t.Fatalf("expected %s, got %s (%v)", code, got, err)
	}
}

// The acceptance cases from the sandbox design: runaway queries terminate
// with the documented LOPS* code, within bounded wall-clock time.

func TestInfiniteForHitsStepBudget(t *testing.T) {
	err := evalLimited(t,
		`for $i in 1 to 40000000 return $i * 2`,
		Limits{MaxSteps: 50000}, Options{})
	wantCode(t, err, CodeSteps)
}

func TestInfiniteRecursionHitsStepBudget(t *testing.T) {
	// With the depth limit raised out of the way, unbounded recursion must
	// still terminate via the step budget.
	err := evalLimited(t,
		`declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)`,
		Limits{MaxSteps: 20000, MaxDepth: 1 << 20}, Options{})
	wantCode(t, err, CodeSteps)
}

func TestInfiniteRecursionHitsDepthLimit(t *testing.T) {
	err := evalLimited(t,
		`declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)`,
		Limits{MaxDepth: 100}, Options{})
	wantCode(t, err, CodeDepth)
}

func TestTimeoutTerminatesRunawayLoop(t *testing.T) {
	const timeout = 250 * time.Millisecond
	start := time.Now()
	err := evalLimited(t,
		`for $i in 1 to 40000000 return $i * 2`,
		Limits{Timeout: timeout}, Options{})
	elapsed := time.Since(start)
	wantCode(t, err, CodeTimeout)
	// The acceptance bound: termination within 2x the configured timeout.
	if elapsed > 2*timeout {
		t.Fatalf("took %v to honor a %v timeout", elapsed, timeout)
	}
}

func TestContextCancellationTerminatesEval(t *testing.T) {
	p, err := compileSrc(`for $i in 1 to 40000000 return $i * 2`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, evalErr := p.Eval(ctx, nil, nil, Options{})
	wantCode(t, evalErr, CodeTimeout)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

func TestNodeBudget(t *testing.T) {
	err := evalLimited(t,
		`<a>{for $i in 1 to 1000000 return <b/>}</a>`,
		Limits{MaxNodes: 1000}, Options{})
	wantCode(t, err, CodeNodes)
}

func TestOutputByteBudget(t *testing.T) {
	err := evalLimited(t,
		`<a>{for $i in 1 to 1000000 return "xxxxxxxxxxxxxxxx"}</a>`,
		Limits{MaxOutputBytes: 4096}, Options{})
	wantCode(t, err, CodeOutput)
}

func TestOutputByteBudgetViaConcat(t *testing.T) {
	// Doubling through fn:concat must charge the byte budget even though no
	// nodes are constructed.
	err := evalLimited(t,
		`declare function local:dbl($s, $n) {
		   if ($n = 0) then $s else local:dbl(concat($s, $s), $n - 1)
		 };
		 local:dbl("x", 40)`,
		Limits{MaxOutputBytes: 1 << 20}, Options{})
	wantCode(t, err, CodeOutput)
}

func TestLimitErrorsAreNotCatchable(t *testing.T) {
	// A limit error is sticky: try/catch must not let the query continue
	// past an exhausted budget, or the sandbox guarantees nothing.
	err := evalLimited(t,
		`try { for $i in 1 to 40000000 return $i } catch { "escaped" }`,
		Limits{MaxSteps: 10000}, Options{})
	wantCode(t, err, CodeSteps)
}

func TestDepthErrorRemainsCatchable(t *testing.T) {
	// Recursion depth is a per-call-chain condition, not an exhausted global
	// budget: catching it and continuing is sound (and the existing
	// try/catch tests depend on it).
	p, err := compileSrc(
		`declare function local:loop($n) { local:loop($n + 1) };
		 try { local:loop(0) } catch ($c, $m) { $c }`)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := p.Eval(context.Background(), nil, nil, Options{Limits: Limits{MaxDepth: 50}})
	if err != nil {
		t.Fatalf("catch should have handled the depth error: %v", err)
	}
	if out := SerializeSeq(seq); out != CodeDepth {
		t.Fatalf("caught code = %q, want %q", out, CodeDepth)
	}
}

// TestDepthLimitExactWithWideFrames: recursion to exactly MaxDepth calls
// succeeds and one call more raises CodeDepth, through a function whose
// frame is wider than the value-stack slots an evaluation starts with, so
// the stack moves to larger arrays on the way down. Each level reads its
// own parameters after its recursive call returns: a frame stays valid
// while the stack moves under it.
func TestDepthLimitExactWithWideFrames(t *testing.T) {
	const maxDepth = 300
	params := []string{"$n"}
	args := []string{"$n - 1"}
	for i := 2; i <= 18; i++ {
		params = append(params, fmt.Sprintf("$a%d", i))
		args = append(args, fmt.Sprintf("$a%d", i))
	}
	src := func(calls int) string {
		vals := []string{fmt.Sprint(calls - 1)}
		for i := 2; i <= 18; i++ {
			vals = append(vals, fmt.Sprint(i))
		}
		return `declare function local:w(` + strings.Join(params, ", ") + `) {
			if ($n = 0) then sum((` + strings.Join(args[1:], ", ") + `))
			else local:w(` + strings.Join(args, ", ") + `) + $a18 - $a17 };
			local:w(` + strings.Join(vals, ", ") + `)`
	}
	p, err := compileSrc(src(maxDepth))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := p.Eval(context.Background(), nil, nil, Options{Limits: Limits{MaxDepth: maxDepth}})
	if err != nil {
		t.Fatalf("%d calls under MaxDepth %d: %v", maxDepth, maxDepth, err)
	}
	// sum(2 to 18) at the bottom, plus one on each of the other levels.
	if out, want := SerializeSeq(seq), fmt.Sprint(170+maxDepth-1); out != want {
		t.Fatalf("%d calls = %s, want %s", maxDepth, out, want)
	}
	wantCode(t, evalLimited(t, src(maxDepth+1), Limits{MaxDepth: maxDepth}, Options{}), CodeDepth)
}

func TestPanicContainment(t *testing.T) {
	// A host callback that panics must not crash the caller: the Eval
	// boundary converts it to a coded LOPS0009 error.
	p, err := compileSrc(`trace("boom")`)
	if err != nil {
		t.Fatal(err)
	}
	_, evalErr := p.Eval(context.Background(), nil, nil, Options{
		Tracer: obs.TraceFunc(func([]string) { panic("host tracer exploded") }),
	})
	wantCode(t, evalErr, CodePanic)
	if !strings.Contains(evalErr.Error(), "host tracer exploded") {
		t.Fatalf("contained panic should carry the panic value: %v", evalErr)
	}
}

// TestRangeWidthCannotWrap: a range's width is taken without int64
// overflow, so a range wider than int64 can count raises FOAR0002 before
// allocating, with or without a step budget (not a contained makeslice
// panic, and not a run that charges no steps until the clock stops it).
func TestRangeWidthCannotWrap(t *testing.T) {
	for _, src := range []string{
		`count(-5000000000000000000 to 5000000000000000000)`,
		`count((-9223372036854775807 - 1) to 9223372036854775807)`,
		`count(1 to 50000002)`,
	} {
		for _, lim := range []Limits{{}, {MaxSteps: 1000, Timeout: 500 * time.Millisecond}} {
			wantCode(t, evalLimited(t, src, lim, Options{}), "FOAR0002")
		}
	}
}

func TestUnlimitedEvalStillWorks(t *testing.T) {
	p, err := compileSrc(`sum(for $i in 1 to 100 return $i)`)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := p.Eval(context.Background(), nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out := SerializeSeq(seq); out != "5050" {
		t.Fatalf("got %q", out)
	}
}

func TestDeeplyNestedParensRejected(t *testing.T) {
	// The parser depth guard: pathological nesting must be a static error,
	// not a stack overflow.
	src := strings.Repeat("(", 100000) + "1" + strings.Repeat(")", 100000)
	if _, err := compileSrc(src); err == nil {
		t.Fatal("deeply nested parens should fail to compile")
	}
}

func TestDeeplyNestedConstructorsRejected(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100000; i++ {
		b.WriteString("<a>")
	}
	for i := 0; i < 100000; i++ {
		b.WriteString("</a>")
	}
	if _, err := compileSrc(b.String()); err == nil {
		t.Fatal("deeply nested constructors should fail to compile")
	}
}

func TestIsLimitCode(t *testing.T) {
	for _, code := range []string{CodeTimeout, CodeSteps, CodeDepth, CodeNodes, CodeOutput} {
		if !IsLimitCode(code) {
			t.Errorf("IsLimitCode(%s) = false", code)
		}
	}
	for _, code := range []string{CodePanic, "XPST0008", "FOAR0001", ""} {
		if IsLimitCode(code) {
			t.Errorf("IsLimitCode(%q) = true", code)
		}
	}
}

// ---- Threshold parity through the compiled path ----
//
// The exact budget consumption of representative programs, measured on the
// pre-refactor tree-walking evaluator. The closure-compiled engine charges
// at the same sites, so each program must succeed with exactly its
// threshold and trip one unit below it — byte-for-byte budget parity.

// thresholdCase is one program with its measured exact budget consumption.
type thresholdCase struct {
	name string
	src  string
	need int64
}

// checkThreshold asserts src completes with budget `need` and trips with
// code `code` at `need-1`.
func checkThreshold(t *testing.T, tc thresholdCase, mk func(n int64) Limits, code string) {
	t.Helper()
	t.Run(tc.name, func(t *testing.T) {
		if err := evalLimited(t, tc.src, mk(tc.need), Options{}); err != nil {
			t.Fatalf("budget %d should be exactly enough: %v", tc.need, err)
		}
		wantCode(t, evalLimited(t, tc.src, mk(tc.need-1), Options{}), code)
	})
}

func TestStepBudgetExactThresholds(t *testing.T) {
	cases := []thresholdCase{
		{"arith", `1 + 2`, 3},
		{"flwor", `for $i in 1 to 5 return $i * 2`, 24},
		{"let-count", `let $x := (1,2,3) return count($x)`, 7},
		{"construct", `<a id="1"><b/>{ "hi" }</a>`, 2},
		{"string-join", `string-join(("aa","bb","cc"), "-")`, 6},
	}
	for _, tc := range cases {
		checkThreshold(t, tc, func(n int64) Limits { return Limits{MaxSteps: n} }, CodeSteps)
	}
}

func TestNodeBudgetExactThresholds(t *testing.T) {
	cases := []thresholdCase{
		{"direct", `<a id="1"><b/>{ "hi" }</a>`, 5},
		{"computed", `element out { (attribute k {"v"}, <x/>, "text") }`, 6},
		// Direct comments and PIs charge what their computed forms charge.
		// A limit of 0 means none, so each row needs at least 2.
		{"comp-comment", `(comment {"x"}, comment {"x"})`, 2},
		{"dir-comment", `(<!--x-->, <!--x-->)`, 2},
		{"comp-pi", `(processing-instruction pi {"x"}, processing-instruction pi {"x"})`, 2},
		{"dir-pi", `(<?pi x?>, <?pi x?>)`, 2},
		{"comp-comment-child", `<a>{comment {"c"}}</a>`, 3},
		{"dir-comment-child", `<a><!--c--></a>`, 3},
	}
	for _, tc := range cases {
		checkThreshold(t, tc, func(n int64) Limits { return Limits{MaxNodes: n} }, CodeNodes)
	}
}

func TestOutputByteBudgetExactThresholds(t *testing.T) {
	cases := []thresholdCase{
		{"direct", `<a id="1"><b/>{ "hi" }</a>`, 3},
		{"comp-text", `text { "hello world" }`, 11},
		{"comp-comment", `comment {"xy"}`, 2},
		{"dir-comment", `<!--xy-->`, 2},
		{"comp-pi", `processing-instruction pi {"xy"}`, 2},
		{"dir-pi", `<?pi xy?>`, 2},
		{"comp-comment-child", `<a>{comment {"cd"}}</a>`, 2},
		{"dir-comment-child", `<a><!--cd--></a>`, 2},
	}
	for _, tc := range cases {
		checkThreshold(t, tc, func(n int64) Limits { return Limits{MaxOutputBytes: n} }, CodeOutput)
	}
}

func TestDepthLimitExactThreshold(t *testing.T) {
	// Recursion to depth 10 needs MaxDepth 11 (the initial call plus ten
	// recursive frames).
	tc := thresholdCase{"recursion-10", `
		declare function local:down($n) {
		  if ($n = 0) then 0 else local:down($n - 1)
		};
		local:down(10)`, 11}
	checkThreshold(t, tc, func(n int64) Limits { return Limits{MaxDepth: int(n)} }, CodeDepth)
}

// ---- Uncatchability of exhausted budgets through the compiled path ----

func TestStepBudgetNotCatchable(t *testing.T) {
	err := evalLimited(t,
		`try { for $i in 1 to 5 return $i * 2 } catch { "escaped" }`,
		Limits{MaxSteps: 23}, Options{})
	wantCode(t, err, CodeSteps)
}

func TestNodeBudgetNotCatchable(t *testing.T) {
	err := evalLimited(t,
		`try { <a id="1"><b/>{ "hi" }</a> } catch { "escaped" }`,
		Limits{MaxNodes: 4}, Options{})
	wantCode(t, err, CodeNodes)
}

func TestOutputByteBudgetNotCatchable(t *testing.T) {
	err := evalLimited(t,
		`try { text { "hello world" } } catch { "escaped" }`,
		Limits{MaxOutputBytes: 10}, Options{})
	wantCode(t, err, CodeOutput)
}

func TestTimeoutNotCatchable(t *testing.T) {
	err := evalLimited(t,
		`try { for $i in 1 to 40000000 return $i * 2 } catch { "escaped" }`,
		Limits{Timeout: 100 * time.Millisecond}, Options{})
	wantCode(t, err, CodeTimeout)
}

// Depth (LOPS0003) stays deliberately catchable — a per-call-chain
// condition, not a global budget; TestDepthErrorRemainsCatchable covers it.

// TestDepthLimitOnMemoHit: a call answered from an invariant function's memo
// slot still pays the depth check, so the recursion that first fills the slot
// and then calls the function one level past MaxDepth raises the depth code,
// exactly where the unmarked program does. The marked program runs the body
// once: one step fewer than the unmarked one, whose body is one step.
func TestDepthLimitOnMemoHit(t *testing.T) {
	const src = `
		declare variable $g := 7;
		declare function local:m() { $g };
		declare function local:down($n) { if ($n = 0) then local:m() else local:down($n - 1) };
		(local:m(), local:down(10))`
	compile := func(marked bool) *Program {
		mod, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		mod.Functions[0].Invariant = marked
		p, err := NewProgramWithShapes(mod, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	steps := map[bool]int64{}
	for _, marked := range []bool{false, true} {
		p := compile(marked)
		// local:down(10) is eleven frames deep and its local:m() a twelfth.
		var st obs.EvalStats
		out, err := p.Eval(context.Background(), nil, nil, Options{Limits: Limits{MaxDepth: 12}, Stats: &st})
		if err != nil || SerializeSeq(out) != "7 7" {
			t.Fatalf("marked=%v, MaxDepth 12: %q, %v; want 7 7", marked, SerializeSeq(out), err)
		}
		steps[marked] = st.Steps
		_, err = p.Eval(context.Background(), nil, nil, Options{Limits: Limits{MaxDepth: 11}})
		wantCode(t, err, CodeDepth)
	}
	if steps[true] != steps[false]-1 {
		t.Errorf("steps: marked %d, unmarked %d; want one fewer marked", steps[true], steps[false])
	}
}
