package difftest

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"lopsided/internal/xquery/funclib"
)

// TestBuiltinCallsAgree enumerates rows where the sweeps enumerate seeds.
// Argument-check elision — a call to a user function skips the check of a
// parameter whose declared type subsumes the argument's inferred shape — is
// the one consumer of shapes with no runtime guard, so a built-in row that
// over-promises (funclib.Func: occurrence, kinds, node-freeness, flow) is a
// wrong answer, not a slow path. Every built-in at every arity it takes, over
// a handful of argument expressions, is passed to functions declaring four
// parameter types, and the outcome must be the same with the analysis on and
// off, optimized and not — and through the projected parse, which reads the
// same rows to decide what of the document to keep. Random programs almost
// never put remove() or sum("a") in argument position of a typed function;
// three thousand seeds a run did not.
func TestBuiltinCallsAgree(t *testing.T) {
	var configs []Config
	for _, name := range []string{"O0", "O2", "O0+noshapes", "O2+noshapes", "O2+proj"} {
		cfg, ok := FindConfig(name)
		if !ok {
			t.Fatalf("no configuration %s", name)
		}
		configs = append(configs, cfg)
	}
	exprs := []string{`()`, `1`, `"a"`, `(1,2,3)`, `("a",1)`, `//a`, `/r/@x`}
	types := []string{`node()*`, `xs:numeric`, `xs:string?`, `item()`}
	names := append(funclib.Names(), "xs:integer", "xs:string", "xs:positiveInteger", "xs:untypedAtomic", "xs:numeric")
	sort.Strings(names)
	cases := 0
	for _, name := range names {
		for arity := 0; arity <= 3; arity++ {
			if _, ok := funclib.Lookup(name, arity); !ok {
				continue
			}
			// Every argument the same expression, then the first varying
			// over 1s (a sequence argument beside scalar ones).
			seen := map[string]bool{}
			for _, rest := range []string{"", `1`} {
				for _, e := range exprs {
					args := make([]string, arity)
					for i := range args {
						args[i] = e
						if i > 0 && rest != "" {
							args[i] = rest
						}
					}
					call := name + "(" + strings.Join(args, ", ") + ")"
					if seen[call] {
						continue
					}
					seen[call] = true
					for _, typ := range types {
						c := Case{
							Src: fmt.Sprintf("declare function local:f($p as %s) { count($p) }; local:f(%s)", typ, call),
							Doc: `<r x="7"><a>1</a><a>2<b/></a></r>`,
						}
						cases++
						if d := Check(c, configs); d != nil {
							t.Errorf("%v", d)
						}
					}
				}
			}
		}
	}
	if cases < 2000 {
		t.Errorf("only %d cases enumerated", cases)
	}
}
