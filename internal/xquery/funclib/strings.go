package funclib

import (
	"regexp"
	"strings"

	"lopsided/internal/xdm"
)

func registerStringFuncs() {
	registerFocus("string", row(xdm.One, xdm.KStr).bounded(), func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args) == 0 {
			it, err := ctx.FocusItem()
			if err != nil {
				return nil, err
			}
			return singleton(xdm.String(it.StringValue()))
		}
		it, err := args[0].AtMostOne()
		if err != nil {
			return nil, err
		}
		if it == nil {
			return singleton(xdm.String(""))
		}
		return singleton(xdm.String(it.StringValue()))
	})

	register("concat", 2, -1, row(xdm.One, xdm.KStr).bounded(), func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		var b strings.Builder
		for _, a := range args {
			s, err := stringArg(a)
			if err != nil {
				return nil, err
			}
			// Repeated self-concatenation doubles output per call; charging
			// the bytes keeps string growth inside the sandbox budget.
			if err := ctx.ChargeBytes(len(s)); err != nil {
				return nil, err
			}
			b.WriteString(s)
		}
		return singleton(xdm.String(b.String()))
	})

	register("string-join", 2, 2, row(xdm.One, xdm.KStr).bounded(), func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		sep, err := stringArg(args[1])
		if err != nil {
			return nil, err
		}
		parts := make([]string, len(args[0]))
		for i, it := range xdm.Atomize(args[0]) {
			parts[i] = it.StringValue()
			if err := ctx.ChargeBytes(len(parts[i]) + len(sep)); err != nil {
				return nil, err
			}
		}
		return singleton(xdm.String(strings.Join(parts, sep)))
	})

	// substring($s, $start[, $len]) with XPath's 1-based rounding semantics.
	register("substring", 2, 3, row(xdm.One, xdm.KStr).bounded(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		start, ok, err := numArg(args[1])
		if err != nil {
			return nil, err
		}
		if !ok {
			return singleton(xdm.String(""))
		}
		runes := []rune(s)
		n := float64(len(runes))
		from := xdm.RoundDouble(start)
		to := n + 1
		if len(args) == 3 {
			length, ok, err := numArg(args[2])
			if err != nil {
				return nil, err
			}
			if !ok {
				return singleton(xdm.String(""))
			}
			to = from + xdm.RoundDouble(length)
		}
		var b strings.Builder
		for i := 1.0; i <= n; i++ {
			if i >= from && i < to {
				b.WriteRune(runes[int(i)-1])
			}
		}
		return singleton(xdm.String(b.String()))
	})

	registerFocus("string-length", row(xdm.One, xdm.KInt).bounded(), func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		var s string
		if len(args) == 0 {
			it, err := ctx.FocusItem()
			if err != nil {
				return nil, err
			}
			s = it.StringValue()
		} else {
			var err error
			s, err = stringArg(args[0])
			if err != nil {
				return nil, err
			}
		}
		return singleton(xdm.Integer(len([]rune(s))))
	})

	registerFocus("normalize-space", row(xdm.One, xdm.KStr).bounded(), func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		var s string
		if len(args) == 0 {
			it, err := ctx.FocusItem()
			if err != nil {
				return nil, err
			}
			s = it.StringValue()
		} else {
			var err error
			s, err = stringArg(args[0])
			if err != nil {
				return nil, err
			}
		}
		return singleton(xdm.String(strings.Join(strings.Fields(s), " ")))
	})

	register("upper-case", 1, 1, row(xdm.One, xdm.KStr).bounded(), strFunc1(strings.ToUpper))
	register("lower-case", 1, 1, row(xdm.One, xdm.KStr).bounded(), strFunc1(strings.ToLower))

	register("translate", 3, 3, row(xdm.One, xdm.KStr).bounded(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		from, err := stringArg(args[1])
		if err != nil {
			return nil, err
		}
		to, err := stringArg(args[2])
		if err != nil {
			return nil, err
		}
		fromR, toR := []rune(from), []rune(to)
		var b strings.Builder
		for _, r := range s {
			idx := -1
			for i, fr := range fromR {
				if fr == r {
					idx = i
					break
				}
			}
			switch {
			case idx < 0:
				b.WriteRune(r)
			case idx < len(toR):
				b.WriteRune(toR[idx])
			}
		}
		return singleton(xdm.String(b.String()))
	})

	register("contains", 2, 2, row(xdm.One, xdm.KBool).bounded(), strPred2(strings.Contains))
	register("starts-with", 2, 2, row(xdm.One, xdm.KBool).bounded(), strPred2(strings.HasPrefix))
	register("ends-with", 2, 2, row(xdm.One, xdm.KBool).bounded(), strPred2(strings.HasSuffix))

	register("substring-before", 2, 2, row(xdm.One, xdm.KStr).bounded(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		a, b, err := twoStrings(args)
		if err != nil {
			return nil, err
		}
		if i := strings.Index(a, b); i >= 0 && b != "" {
			return singleton(xdm.String(a[:i]))
		}
		return singleton(xdm.String(""))
	})
	register("substring-after", 2, 2, row(xdm.One, xdm.KStr).bounded(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		a, b, err := twoStrings(args)
		if err != nil {
			return nil, err
		}
		if i := strings.Index(a, b); i >= 0 && b != "" {
			return singleton(xdm.String(a[i+len(b):]))
		}
		return singleton(xdm.String(""))
	})

	register("compare", 2, 2, row(xdm.Optional, xdm.KInt).bounded(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		x, err := xdm.Atomize(args[0]).AtMostOne()
		if err != nil {
			return nil, err
		}
		y, err := xdm.Atomize(args[1]).AtMostOne()
		if err != nil {
			return nil, err
		}
		if x == nil || y == nil {
			return xdm.Empty, nil
		}
		return singleton(xdm.Integer(strings.Compare(x.StringValue(), y.StringValue())))
	})

	register("string-to-codepoints", 1, 1, row(xdm.ZeroOrMore, xdm.KInt).bounded(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		var out xdm.Sequence
		for _, r := range s {
			out = append(out, xdm.Integer(r))
		}
		return out, nil
	})
	register("codepoints-to-string", 1, 1, row(xdm.One, xdm.KStr).total(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		var b strings.Builder
		for _, it := range xdm.Atomize(args[0]) {
			cp := xdm.NumberOf(it)
			b.WriteRune(rune(int32(cp)))
		}
		return singleton(xdm.String(b.String()))
	})

	// Regex functions use Go's RE2 syntax, a close cousin of the XML Schema
	// regex dialect for the patterns the generator used.
	register("matches", 2, 2, row(xdm.One, xdm.KBool), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, pat, err := twoStrings(args)
		if err != nil {
			return nil, err
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, xdm.Errf("FORX0002", "invalid regular expression %q: %v", pat, err)
		}
		return xdm.BoolSeq(re.MatchString(s)), nil
	})
	register("replace", 3, 3, row(xdm.One, xdm.KStr), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		pat, err := stringArg(args[1])
		if err != nil {
			return nil, err
		}
		repl, err := stringArg(args[2])
		if err != nil {
			return nil, err
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, xdm.Errf("FORX0002", "invalid regular expression %q: %v", pat, err)
		}
		// XPath uses $1; Go uses $1 too (with ${1} for disambiguation).
		return singleton(xdm.String(re.ReplaceAllString(s, repl)))
	})
	register("tokenize", 2, 2, row(xdm.ZeroOrMore, xdm.KStr), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, pat, err := twoStrings(args)
		if err != nil {
			return nil, err
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, xdm.Errf("FORX0002", "invalid regular expression %q: %v", pat, err)
		}
		if s == "" {
			return xdm.Empty, nil
		}
		var out xdm.Sequence
		for _, part := range re.Split(s, -1) {
			out = append(out, xdm.String(part))
		}
		return out, nil
	})
}

func strFunc1(f func(string) string) func(Context, []xdm.Sequence) (xdm.Sequence, error) {
	return func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		return singleton(xdm.String(f(s)))
	}
}

func strPred2(f func(string, string) bool) func(Context, []xdm.Sequence) (xdm.Sequence, error) {
	return func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		a, b, err := twoStrings(args)
		if err != nil {
			return nil, err
		}
		return xdm.BoolSeq(f(a, b)), nil
	}
}

func twoStrings(args []xdm.Sequence) (string, string, error) {
	a, err := stringArg(args[0])
	if err != nil {
		return "", "", err
	}
	b, err := stringArg(args[1])
	if err != nil {
		return "", "", err
	}
	return a, b, nil
}
