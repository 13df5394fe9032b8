package xq

import (
	"strings"
	"testing"
	"time"
)

// FuzzCompile asserts the public API's sandbox promise: no query source,
// however adversarial, may panic Compile or Eval, and evaluation under tiny
// limits always terminates promptly.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		`1 + 1`,
		`for $b in /lib/book return $b/title`,
		`let $x := (1,2,3) return $x[2]`,
		`declare function local:f($n) { if ($n = 0) then 0 else local:f($n - 1) }; local:f(3)`,
		`<out>{for $i in 1 to 3 return <item n="{$i}"/>}</out>`,
		`some $x in (1,2) satisfies $x > 1`,
		`try { error("X") } catch ($c, $m) { $c }`,
		`"a" = ("a", "b")`,
		`count(distinct-values((1, 1, 2)))`,
		`declare function local:l($n) { local:l($n) }; local:l(1)`,
		`((((((1))))))`,
		`1 to 1000000000`,
		`$undeclared`, `1 +`, `<a>`, `for $i in`,
		// Many direct constructors, each entered from token mode: compile
		// time must stay linear in their number.
		"(" + strings.Repeat("<a/>,", 2000) + "1)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	lim := Limits{
		Timeout:        200 * time.Millisecond,
		MaxSteps:       100000,
		MaxNodes:       10000,
		MaxOutputBytes: 1 << 16,
		MaxDepth:       200,
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Compile(src, WithLimits(lim))
		if err != nil {
			return // rejected statically: fine
		}
		start := time.Now()
		_, evalErr := q.Eval(nil, nil)
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("sandboxed eval of %q ran %v", src, elapsed)
		}
		_ = evalErr // dynamic errors are fine; only panics/hangs are bugs
	})
}
