package difftest

import "testing"

// TestIntegerEdgeMatrix runs integer arithmetic, rounding, aggregates, casts
// and ranges at the edges of int64 through every configuration, each answer
// worked out by hand. Integers are int64 and never wrap: a result outside
// int64 raises FOAR0002 (arithmetic) or FOCA0003 (a finite double, decimal
// or integer string cast to an integer), at the same position in every configuration — the
// optimizer must neither fold an overflow into a wrapped literal nor drop a
// dead let that overflows.
func TestIntegerEdgeMatrix(t *testing.T) {
	const (
		max = "9223372036854775807"
		min = "(-9223372036854775807 - 1)"
	)
	cases := []struct{ src, want, code string }{
		// + - * on both sides of each edge.
		{max + ` + 1`, "", "FOAR0002"},
		{max + ` + 0`, max, ""},
		{min + ` + -1`, "", "FOAR0002"},
		{min + ` + ` + max, "-1", ""},
		{min + ` - 1`, "", "FOAR0002"},
		{max + ` - -1`, "", "FOAR0002"},
		{`0 - ` + min, "", "FOAR0002"},
		{`-1 - ` + min, max, ""},
		{max + ` * 2`, "", "FOAR0002"},
		{min + ` * -1`, "", "FOAR0002"},
		{`-1 * ` + min, "", "FOAR0002"},
		{`4294967296 * 4294967296`, "", "FOAR0002"},
		{`3037000499 * 3037000499`, "9223372030926249001", ""},
		{`-` + max + ` * -1`, max, ""},
		{min + ` * 1`, "-9223372036854775808", ""},
		// idiv, mod and div, whose one int64 overflow is MinInt64 by -1.
		{min + ` idiv -1`, "", "FOAR0002"},
		{min + ` idiv 1`, "-9223372036854775808", ""},
		{max + ` idiv -1`, "-" + max, ""},
		{min + ` mod -1`, "0", ""},
		{max + ` mod 2`, "1", ""},
		{min + ` div -1`, "9.223372036854776E+18", ""},
		{`1e19 idiv 1`, "", "FOAR0002"},
		{`-1e19 idiv 1`, "", "FOAR0002"},
		{`9.2e18 idiv 1`, "9200000000000000000", ""},
		{`xs:double("INF") idiv 1`, "", "FOAR0002"},
		// Unary minus and plus.
		{`-` + min, "", "FOAR0002"},
		{`-(` + max + `)`, "-" + max, ""},
		{`- - ` + max, max, ""},
		{`+` + min, "-9223372036854775808", ""},
		// The rounding family keeps an integer exact, 2^53+1 included.
		{`abs(9007199254740993)`, "9007199254740993", ""},
		{`abs(-9007199254740993)`, "9007199254740993", ""},
		{`floor(9007199254740993)`, "9007199254740993", ""},
		{`round(-9007199254740993)`, "-9007199254740993", ""},
		{`abs(` + min + `)`, "", "FOAR0002"},
		{`floor(` + min + `)`, "-9223372036854775808", ""},
		{`round(` + min + `)`, "-9223372036854775808", ""},
		{`ceiling(` + max + `)`, max, ""},
		{`abs("a")`, "", "XPTY0004"},
		{`floor(true())`, "", "XPTY0004"},
		// Aggregates fold through the same arithmetic.
		{`sum((` + max + `, 1))`, "", "FOAR0002"},
		{`sum((` + min + `, -1))`, "", "FOAR0002"},
		{`sum((` + max + `, -1, 1))`, max, ""},
		{`avg((` + max + `, 1))`, "", "FOAR0002"},
		{`avg((` + max + `, -` + max + `))`, "0", ""},
		// Casts: NaN and INF are FOCA0002, a finite value outside int64 is
		// FOCA0003; 2^63 is the first double past the top, -2^63 is in.
		{`xs:integer(1e19)`, "", "FOCA0003"},
		{`xs:integer(-1e19)`, "", "FOCA0003"},
		{`xs:integer(9.2e18)`, "9200000000000000000", ""},
		{`xs:integer(xs:decimal(1e19))`, "", "FOCA0003"},
		{`xs:integer(9.223372036854775808e18)`, "", "FOCA0003"},
		{`xs:integer(-9.223372036854775808e18)`, "-9223372036854775808", ""},
		{`xs:integer(xs:double("INF"))`, "", "FOCA0002"},
		{`1e19 castable as xs:integer`, "false", ""},
		// Range bounds and positions cast the same way.
		{`count(1 to 1e19)`, "", "FOCA0003"},
		{`remove((1,2), 1e19)`, "", "FOCA0003"},
		{`(` + max + ` - 1) to ` + max, "9223372036854775806 " + max, ""},
		// A dead let that overflows still raises.
		{`let $d := ` + max + ` + 1 return 1`, "", "FOAR0002"},
		{`let $d := -` + min + ` return 1`, "", "FOAR0002"},
		// A well-formed integer string outside int64 is out of range too;
		// a malformed one is FORG0001.
		{`xs:integer("9223372036854775808")`, "", "FOCA0003"},
		{`xs:integer("-9223372036854775809")`, "", "FOCA0003"},
		{`xs:integer("12a")`, "", "FORG0001"},
	}
	for i, tc := range cases {
		c := Case{Seed: int64(-5000 - i), Src: tc.src}
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
