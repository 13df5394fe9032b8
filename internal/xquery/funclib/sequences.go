package funclib

import (
	"math"

	"lopsided/internal/xdm"
)

func registerSequenceFuncs() {
	register("count", 1, 1, row(xdm.One, xdm.KInt).total().shell(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return singleton(xdm.Integer(len(args[0])))
	})
	register("empty", 1, 1, row(xdm.One, xdm.KBool).total().shell(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.BoolSeq(args[0].IsEmpty()), nil
	})
	register("exists", 1, 1, row(xdm.One, xdm.KBool).total().shell(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.BoolSeq(!args[0].IsEmpty()), nil
	})
	register("data", 1, 1, row(xdm.ZeroOrMore, xdm.KAny).total().from(0), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Atomize(args[0]), nil
	})

	register("distinct-values", 1, 1, row(xdm.ZeroOrMore, xdm.KAny).total(), func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		// Quadratic over the input: charge each inner probe so a large
		// distinct-values cannot dodge the sandbox step budget.
		var out xdm.Sequence
		for _, it := range xdm.Atomize(args[0]) {
			if err := chargeSteps(ctx, 1+len(out)); err != nil {
				return nil, err
			}
			dup := false
			for _, seen := range out {
				if sameValue(seen, it) {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, it)
			}
		}
		return out, nil
	})

	register("index-of", 2, 2, row(xdm.ZeroOrMore, xdm.KInt), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		needle, err := xdm.Atomize(args[1]).One()
		if err != nil {
			return nil, err
		}
		var out xdm.Sequence
		for i, it := range xdm.Atomize(args[0]) {
			// fn:index-of compares with `eq` semantics: NaN matches nothing
			// (including NaN), and incomparable pairs are skipped — unlike
			// distinct-values, whose spec'd equality treats NaN as equal to
			// itself (see sameValue).
			ok, err := xdm.CompareValue(it, needle, xdm.OpEq)
			if err == nil && ok {
				out = append(out, xdm.Integer(i+1))
			}
		}
		return out, nil
	})

	register("insert-before", 3, 3, nodes(xdm.ZeroOrMore, xdm.KNone).from(0, 2), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		pos, err := intArg(args[1])
		if err != nil {
			return nil, err
		}
		target, ins := args[0], args[2]
		if pos < 1 {
			pos = 1
		}
		if pos > int64(len(target))+1 {
			pos = int64(len(target)) + 1
		}
		out := make(xdm.Sequence, 0, len(target)+len(ins))
		out = append(out, target[:pos-1]...)
		out = append(out, ins...)
		out = append(out, target[pos-1:]...)
		return out, nil
	})

	register("remove", 2, 2, nodes(xdm.ZeroOrMore, xdm.KNone).from(0).partial(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		pos, err := intArg(args[1])
		if err != nil {
			return nil, err
		}
		target := args[0]
		if pos < 1 || pos > int64(len(target)) {
			return target, nil
		}
		out := make(xdm.Sequence, 0, len(target)-1)
		out = append(out, target[:pos-1]...)
		out = append(out, target[pos:]...)
		return out, nil
	})

	register("reverse", 1, 1, nodes(xdm.ZeroOrMore, xdm.KNone).from(0).total(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		in := args[0]
		out := make(xdm.Sequence, len(in))
		for i, it := range in {
			out[len(in)-1-i] = it
		}
		return out, nil
	})

	register("subsequence", 2, 3, nodes(xdm.ZeroOrMore, xdm.KNone).from(0).partial().bounded(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		start, ok, err := numArg(args[1])
		if err != nil {
			return nil, err
		}
		if !ok || math.IsNaN(start) {
			return xdm.Empty, nil
		}
		from := math_round(start)
		to := math.Inf(1)
		if len(args) == 3 {
			length, ok, err := numArg(args[2])
			if err != nil {
				return nil, err
			}
			if !ok || math.IsNaN(length) {
				return xdm.Empty, nil
			}
			to = from + math_round(length)
		}
		var out xdm.Sequence
		for i, it := range args[0] {
			p := float64(i + 1)
			if p >= from && p < to {
				out = append(out, it)
			}
		}
		return out, nil
	})

	register("zero-or-one", 1, 1, nodes(xdm.Optional, xdm.KNone).from(0).total(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args[0]) > 1 {
			return nil, xdm.Errf("FORG0003", "zero-or-one called with a sequence of %d items", len(args[0]))
		}
		return args[0], nil
	})
	register("one-or-more", 1, 1, nodes(xdm.OneOrMore, xdm.KNone).from(0).total(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args[0]) == 0 {
			return nil, xdm.Errf("FORG0004", "one-or-more called with an empty sequence")
		}
		return args[0], nil
	})
	register("exactly-one", 1, 1, nodes(xdm.One, xdm.KNone).from(0).total(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args[0]) != 1 {
			return nil, xdm.Errf("FORG0005", "exactly-one called with a sequence of %d items", len(args[0]))
		}
		return args[0], nil
	})

	register("deep-equal", 2, 2, row(xdm.One, xdm.KBool).total(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.BoolSeq(xdm.DeepEqual(args[0], args[1])), nil
	})

	// Aggregates.
	sum := func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		items := xdm.Atomize(args[0])
		if len(items) == 0 {
			if len(args) == 2 {
				return args[1], nil
			}
			return singleton(xdm.Integer(0))
		}
		return foldArith(items, xdm.OpAdd)
	}
	register("sum", 1, 1, row(xdm.One, xdm.KNum), sum)
	// The zero-value argument is returned verbatim on empty input.
	register("sum", 2, 2, nodes(xdm.ZeroOrMore, xdm.KAny), sum)
	register("avg", 1, 1, row(xdm.Optional, xdm.KNum), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		items := xdm.Atomize(args[0])
		if len(items) == 0 {
			return xdm.Empty, nil
		}
		sum, err := foldArith(items, xdm.OpAdd)
		if err != nil {
			return nil, err
		}
		out, err2 := xdm.Arith(sum[0], xdm.Integer(len(items)), xdm.OpDiv)
		if err2 != nil {
			return nil, err2
		}
		return singleton(out)
	})
	register("max", 1, 1, row(xdm.Optional, xdm.KAny), extremum(xdm.OpGt))
	register("min", 1, 1, row(xdm.Optional, xdm.KAny), extremum(xdm.OpLt))

	focusCount := row(xdm.One, xdm.KInt) // XPDY0002 without a focus
	focusCount.ReadsPosition = true
	register("position", 0, 0, focusCount, func(ctx Context, _ []xdm.Sequence) (xdm.Sequence, error) {
		p, err := ctx.FocusPos()
		if err != nil {
			return nil, err
		}
		return singleton(xdm.Integer(p))
	})
	register("last", 0, 0, focusCount, func(ctx Context, _ []xdm.Sequence) (xdm.Sequence, error) {
		n, err := ctx.FocusSize()
		if err != nil {
			return nil, err
		}
		return singleton(xdm.Integer(n))
	})
}

// sameValue is the equality used by distinct-values: value equality with
// NaN equal to itself, incomparable types unequal.
func sameValue(a, b xdm.Item) bool {
	if xdm.IsNumeric(a) && xdm.IsNumeric(b) {
		fa, fb := xdm.NumberOf(a), xdm.NumberOf(b)
		if math.IsNaN(fa) && math.IsNaN(fb) {
			return true
		}
		return fa == fb
	}
	ok, err := xdm.CompareValue(a, b, xdm.OpEq)
	return err == nil && ok
}

func foldArith(items xdm.Sequence, op xdm.ArithOp) (xdm.Sequence, error) {
	acc := items[0]
	if u, isUntyped := acc.(xdm.Untyped); isUntyped {
		acc = xdm.Double(xdm.NumberOf(u))
	} else if len(items) == 1 && !xdm.IsNumeric(acc) {
		// A lone non-numeric raises what a pair of them does.
		return nil, xdm.Errf("XPTY0004", "arithmetic operator %s on %s", op, acc.TypeName())
	}
	for _, it := range items[1:] {
		next, err := xdm.Arith(acc, it, op)
		if err != nil {
			return nil, err
		}
		acc = next
	}
	return xdm.Singleton(acc), nil
}

// extremum builds fn:max / fn:min. Untyped values are treated numerically
// when every item is numeric-or-untyped, else as strings.
func extremum(op xdm.CompareOp) func(Context, []xdm.Sequence) (xdm.Sequence, error) {
	return func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		items := xdm.Atomize(args[0])
		if len(items) == 0 {
			return xdm.Empty, nil
		}
		numeric := true
		for _, it := range items {
			if _, u := it.(xdm.Untyped); !u && !xdm.IsNumeric(it) {
				numeric = false
				break
			}
		}
		conv := func(it xdm.Item) xdm.Item {
			if u, isU := it.(xdm.Untyped); isU {
				if numeric {
					return xdm.Double(xdm.NumberOf(u))
				}
				return xdm.String(u)
			}
			return it
		}
		best := conv(items[0])
		for _, raw := range items[1:] {
			it := conv(raw)
			better, err := xdm.CompareValue(it, best, op)
			if err != nil {
				return nil, err
			}
			if better {
				best = it
			}
		}
		return xdm.Singleton(best), nil
	}
}
