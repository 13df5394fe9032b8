package difftest

import "testing"

// TestDecimalEdgeMatrix runs decimal literals, arithmetic, comparison,
// rounding, aggregates and casts through every configuration, each answer
// worked out by hand. An xs:decimal is exact: a 128-bit coefficient (|c| <
// 2^127 = 170141183460469231731687303715884105728) and a scale from 0 to 18.
// + - idiv and mod are exact, * is exact to 18 places, div keeps 18
// significant digits rounded half to even, and a result outside the
// representation is FOAR0002; a cast from a string is exact or fails
// (FORG0001 for a bad form, FOCA0006 for too many digits, FOCA0001 out of
// range), and a cast from a double takes its shortest round-tripping digits.
func TestDecimalEdgeMatrix(t *testing.T) {
	cases := []struct{ src, want, code string }{
		// Arithmetic is exact.
		{`0.1 + 0.2 = 0.3`, "true", ""},
		{`0.1 + 0.2`, "0.3", ""},
		{`0.1 * 0.1`, "0.01", ""},
		{`1.10 * 3`, "3.3", ""},
		{`1000000.0 * 1000000.0 * 1000000.0`, "1000000000000000000", ""},
		{`string(-0.5 * 2)`, "-1", ""},
		{`0.0000000001 * 0.0000000001`, "0", ""},
		{`9223372036854775807 + 0.5`, "9223372036854775807.5", ""},
		{`-9223372036854775807.0 - 2`, "-9223372036854775809", ""},
		{`170141183460469231731687303715884105727.0 + 1`, "", "FOAR0002"},
		{`-170141183460469231731687303715884105727.0 - 1`, "", "FOAR0002"},
		{`100000000000000000000.0 * 100000000000000000000.0`, "", "FOAR0002"},
		{`declare function local:fact($n) { if ($n le 1) then 1.0 else $n * local:fact($n - 1) }; local:fact(21)`, "51090942171709440000", ""},
		// div: exact when it can be, else 18 significant digits, half to even.
		{`9007199254740993 div 1`, "9007199254740993", ""},
		{`9223372036854775807 div 1`, "9223372036854775807", ""},
		{`(-9223372036854775807 - 1) div -1`, "9223372036854775808", ""},
		{`1 div 3`, "0.333333333333333333", ""},
		{`2 div 3`, "0.666666666666666667", ""},
		{`(1 div 3) * 3`, "0.999999999999999999", ""},
		{`1 div 4`, "0.25", ""},
		{`1.0 div 0.0`, "", "FOAR0001"},
		{`1 div 0`, "", "FOAR0001"},
		// idiv and mod are exact.
		{`10.5 mod 3`, "1.5", ""},
		{`-10.5 mod 3`, "-1.5", ""},
		{`10.5 idiv 3`, "3", ""},
		{`1.5 mod 0`, "", "FOAR0001"},
		{`1.5 idiv 0.0`, "", "FOAR0001"},
		// The canonical form: no exponent, no trailing zeros, no -0.
		{`string(0.000001)`, "0.000001", ""},
		{`-0.0`, "0", ""},
		{`xs:decimal("-0")`, "0", ""},
		{`xs:decimal("123456789012345678.5")`, "123456789012345678.5", ""},
		{`xs:decimal(" 2.50 ")`, "2.5", ""},
		{`xs:decimal(".5")`, "0.5", ""},
		{`xs:decimal("+5.")`, "5", ""},
		// Literals and strings parse exactly or fail.
		{`xs:integer(1.9999999999999999)`, "1", ""},
		{`(1,2,3)[1.0000000000000001]`, "", ""},
		{`(1,2,3)[2.0]`, "2", ""},
		{`0.1234567890123456789`, "", "FOCA0006"},
		{`xs:decimal("0.1234567890123456789")`, "", "FOCA0006"},
		{`xs:decimal("92233720368547758070")`, "92233720368547758070", ""},
		{`xs:decimal("170141183460469231731687303715884105727")`, "170141183460469231731687303715884105727", ""},
		{`xs:decimal("170141183460469231731687303715884105728")`, "", "FOCA0001"},
		{`xs:decimal("1701411834604692317316873037158841057.271")`, "", "FOCA0006"},
		{`xs:decimal("1e5")`, "", "FORG0001"},
		{`xs:decimal(".")`, "", "FORG0001"},
		{`"1e5" castable as xs:decimal`, "false", ""},
		// Integer and decimal compare exactly; a double promotes the decimal.
		{`1.0 eq 1`, "true", ""},
		{`1.0000000000000001 gt 1`, "true", ""},
		{`9007199254740993.0 = 9007199254740992`, "false", ""},
		{`0.1 = 0.1e0`, "true", ""},
		{`distinct-values((0.100000000000000001, 0.1))`, "0.100000000000000001 0.1", ""},
		{`distinct-values((1.0, 1))`, "1", ""},
		{`max((0.1, 0.100000000000000001))`, "0.100000000000000001", ""},
		// Casts from and to doubles.
		{`xs:decimal(9223372036854775807)`, "9223372036854775807", ""},
		{`xs:decimal(0.1e0)`, "0.1", ""},
		{`xs:decimal(xs:double("INF"))`, "", "FOCA0002"},
		{`xs:decimal(xs:double("NaN"))`, "", "FOCA0002"},
		{`xs:decimal(1e300)`, "", "FOCA0001"},
		{`xs:decimal(1e20)`, "100000000000000000000", ""},
		{`xs:decimal(1e39)`, "", "FOCA0001"},
		{`1e39 castable as xs:decimal`, "false", ""},
		{`xs:decimal(1e-30)`, "0", ""},
		{`xs:double(0.1)`, "0.1", ""},
		// The rounding family stays in decimals for a decimal.
		{`ceiling(-0.5)`, "0", ""},
		{`floor(-0.5)`, "-1", ""},
		{`round(2.5)`, "3", ""},
		{`round(-2.5)`, "-2", ""},
		{`round-half-to-even(2.5)`, "2", ""},
		{`round-half-to-even(-3.5)`, "-4", ""},
		{`abs(-1.5)`, "1.5", ""},
		{`floor(1.5) instance of xs:decimal`, "true", ""},
		{`round(1.0000000000000001)`, "1", ""},
		// One XPath round for doubles: half toward positive infinity.
		{`round(0.49999999999999994e0)`, "0", ""},
		{`round(4503599627370497e0) = 4503599627370497e0`, "true", ""},
		{`round(-0.5e0)`, "-0", ""},
		{`round(2.5e0)`, "3", ""},
		{`substring("abcdef", 0.49999999999999994e0, 2)`, "a", ""},
		{`subsequence((1,2,3), 1.5)`, "2 3", ""},
		// An untyped argument to the rounding family is a double.
		{`floor(xs:untypedAtomic("2.5")) instance of xs:double`, "true", ""},
		{`round(xs:untypedAtomic("-0.5"))`, "-0", ""},
		// Aggregates fold through the same arithmetic.
		{`sum((0.1, 0.2, 0.3))`, "0.6", ""},
		{`sum((1.5, 2)) instance of xs:decimal`, "true", ""},
		{`avg((0.1, 0.2))`, "0.15", ""},
		{`avg((1, 2, 2))`, "1.66666666666666667", ""},
		{`sum((170141183460469231731687303715884105727.0, 1))`, "", "FOAR0002"},
	}
	for i, tc := range cases {
		c := Case{Seed: int64(-6000 - i), Src: tc.src}
		var first Outcome
		for j, cfg := range Matrix() {
			got := Eval(c, cfg)
			if got.Out != tc.want || got.Code != tc.code {
				t.Errorf("%s under %s\n\tgot %q (code %q), want %q (code %q)", tc.src, cfg.Name, got.Out, got.Code, tc.want, tc.code)
				break
			}
			// The error text carries the position: it must not move.
			if j == 0 {
				first = got
			} else if tc.code != "" && got.Err != first.Err {
				t.Errorf("%s: %s raised %q, %s raised %q", tc.src, first.Config.Name, first.Err, cfg.Name, got.Err)
				break
			}
		}
	}
}
