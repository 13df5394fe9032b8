package lexer

import (
	"strings"
	"testing"
)

// FuzzLex asserts the lexer never panics and always terminates: every input
// tokenizes to EOF or fails with a positioned *Error; token offsets strictly
// increase; and rewinding to a token replays it.
func FuzzLex(f *testing.F) {
	seeds := []string{
		`for $b in /lib/book return $b/title`,
		`let $n-1 := 2 return $n-1`,
		`declare function local:f($x) { $x + 1 }; local:f(41)`,
		`<a b="{1+1}">{"text"}</a>`,
		`(: nested (: comment :) :) 1`,
		`"string with "" doubled"`,
		`'&lt;&amp;'`,
		`1.5e-3 idiv 2`,
		`$`, `"unterminated`, `(: unterminated`, "\xff\xfe",
		"(" + strings.Repeat("<a/>,", 2000) + "1)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		lx := New(input)
		// Bound the walk defensively; the lexer must consume at least one
		// byte per token, so len(input)+2 iterations always reach EOF.
		last := -1
		for i := 0; i <= len(input)+2; i++ {
			tok, err := lx.Next()
			if err != nil {
				return
			}
			if tok.Kind == EOF {
				return
			}
			if tok.Offset <= last {
				t.Fatalf("token %+v does not start after offset %d", tok, last)
			}
			last = tok.Offset
			lx.Rewind(tok)
			if again, err := lx.Next(); err != nil || again != tok {
				t.Fatalf("rewound to %+v, rescanned %+v (%v)", tok, again, err)
			}
		}
		t.Fatalf("lexer did not reach EOF within %d tokens", len(input)+2)
	})
}
