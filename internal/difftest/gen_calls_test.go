package difftest

import (
	"math/rand"
	"testing"
)

// callProlog declares the user functions a call case's body calls: the
// identity, a positional pick, bounded recursion on a decreasing argument,
// a body that raises, try/catch inside a function, and a two-parameter
// function whose arguments swap places in its result.
const callProlog = `declare function local:id($x) { $x };
declare function local:pick($s, $i) { $s[$i] };
declare function local:down($n, $acc) { if ($n <= 0) then $acc else local:down($n - 1, ($acc, $n)) };
declare function local:raise($x) { if (count($x) > 1) then error("many") else ($x, 1 div count($x)) };
declare function local:safe($x) { try { local:raise($x) } catch ($c, $m) { ($c, local:id(count($x))) } };
declare function local:two($a, $b) { ($b, local:id($a)) };
`

// callGen wraps gen with call productions. It draws from its own random
// stream, so gen.go's productions, and every pinned seed, are untouched.
type callGen struct {
	*gen
}

// arg is one call argument: a generated expression, or a call (calls as
// arguments).
func (g callGen) arg(depth int) *gnode {
	if depth < 3 && g.rng.Intn(3) == 0 {
		return g.userCall(depth + 1)
	}
	return g.expr(depth + 1)
}

// userCall calls one of callProlog's functions.
func (g callGen) userCall(depth int) *gnode {
	switch g.rng.Intn(6) {
	case 0:
		return lit("local:id(", g.arg(depth), ")")
	case 1:
		return lit("local:pick(", g.arg(depth), ", ", g.pick([]string{"1", "2", "last()", "0"}), ")")
	case 2:
		return lit("local:down(count(", g.arg(depth), ") mod 5, ())")
	case 3:
		return lit("local:raise(", g.arg(depth), ")")
	case 4:
		return lit("local:safe(", g.arg(depth), ")")
	default:
		return lit("local:two(", g.arg(depth), ", ", g.arg(depth), ")")
	}
}

// body is the query body: calls at the top, in a loop over a generated
// sequence with the loop variable as an argument, or in a predicate.
func (g callGen) body() *gnode {
	switch g.rng.Intn(4) {
	case 0:
		v, in := g.fresh(), g.seq(1)
		g.vars = append(g.vars, v)
		q := lit("for $", v, " in ", in, " return ", g.userCall(1))
		g.vars = g.vars[:len(g.vars)-1]
		return q
	case 1:
		return lit("(", g.seq(1), ")[", g.pick([]string{"local:id(position()) = 1", "exists(local:safe(.))", "local:pick((true(), false()), position())"}), "]")
	case 2:
		return lit("try { ", g.userCall(1), " } catch ($c, $m) { ($c, ", g.userCall(2), ") }")
	default:
		return lit("(", g.userCall(0), ", ", g.userCall(0), ")")
	}
}

// generateCalls builds a call case for seed: a generated body under
// callProlog, over a generated context document.
func generateCalls(seed int64) Case {
	g := callGen{&gen{rng: rand.New(rand.NewSource(seed))}}
	return Case{Seed: seed, Src: callProlog + g.body().Source(), Doc: g.document()}
}

// TestCallSweep runs 300 generated call cases through every configuration:
// gen.go never declares a function, so this is the sweep that exercises
// user calls, their frames on the value stack and the callee scope swap.
func TestCallSweep(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		c := generateCalls(seed)
		if d := Check(c, Matrix()); d != nil {
			t.Errorf("seed %d: %v", seed, d)
		}
	}
}
