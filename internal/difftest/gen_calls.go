package difftest

// gen_calls.go extends the differential harness to user-function calls, the
// way gen_update.go extends it to update programs: gen.go never declares a
// function, so the call generator wraps it with productions that call the
// functions of a fixed prolog — at the top of the body, as arguments, in
// loops and in predicates. GenerateCalls backs `xqdiff -calls` and
// TestCallSweep.

import "math/rand"

// callProlog declares the user functions a call case's body calls: the
// identity, a positional pick, bounded recursion on a decreasing argument,
// a body that raises, try/catch inside a function, a two-parameter function
// whose arguments swap places in its result, and three zero-arity
// functions — one over a prolog global bound to the case document's items
// (invariant at O1 and above), one that constructs an element (refused, so
// local:mk() is local:mk() stays false), and one that raises.
const callProlog = `declare variable $items := /r/item;
declare function local:id($x) { $x };
declare function local:pick($s, $i) { $s[$i] };
declare function local:down($n, $acc) { if ($n <= 0) then $acc else local:down($n - 1, ($acc, $n)) };
declare function local:raise($x) { if (count($x) > 1) then error("many") else ($x, 1 div count($x)) };
declare function local:safe($x) { try { local:raise($x) } catch ($c, $m) { ($c, local:id(count($x))) } };
declare function local:two($a, $b) { ($b, local:id($a)) };
declare function local:items() { $items[@n != "abc"] };
declare function local:mk() { <mk n="{count($items)}"/> };
declare function local:boom() { error("boom") };
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
	switch g.rng.Intn(7) {
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
	case 5:
		return lit("local:two(", g.arg(depth), ", ", g.arg(depth), ")")
	default:
		return g.zeroCall()
	}
}

// zeroCall calls one of the zero-arity functions, alone or under a read
// that filters, compares, reverses or navigates its value.
func (g callGen) zeroCall() *gnode {
	switch g.rng.Intn(7) {
	case 0:
		return lit("local:items()")
	case 1:
		return lit("local:items()[", g.pick([]string{"1", "last()", "@n = 1", "position() > 1"}), "]")
	case 2:
		return lit("(local:items()[1] is local:items()[1])")
	case 3:
		return lit("(local:mk() is local:mk())")
	case 4:
		return lit("reverse(local:items())/@k")
	case 5:
		return lit("local:boom()")
	default:
		return lit("count(local:mk()/self::mk)")
	}
}

// body is the query body: calls at the top, in a loop over a generated
// sequence with the loop variable as an argument, in a loop that never
// iterates, or in a predicate.
func (g callGen) body() *gnode {
	switch g.rng.Intn(6) {
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
	case 3:
		v := g.fresh()
		return lit("(for $", v, " in ", g.pick([]string{"()", "local:items()[0]", "$items[false()]"}), " return ", g.zeroCall(), ", ", g.zeroCall(), ")")
	case 4:
		return lit("(", g.seq(1), ")[", g.pick([]string{"exists(local:items()[position() = 1])", "count(local:items()) >= position()", "local:items()[1] is local:items()[1]"}), "]")
	default:
		return lit("(", g.userCall(0), ", ", g.userCall(0), ")")
	}
}

// GenerateCalls builds the call case for seed: a generated body under
// callProlog, over a generated context document. The same seed always
// yields the same case.
func GenerateCalls(seed int64) Case {
	g := callGen{&gen{rng: rand.New(rand.NewSource(seed))}}
	return Case{Seed: seed, Src: callProlog + g.body().Source(), Doc: g.document()}
}
