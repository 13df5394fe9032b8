package xdm

import (
	"fmt"
	"math"
	"math/big"
	"testing"
)

// FuzzIntegerArith holds the integer kernel to math/big, a reference that is
// not the engine: Arith (+ - * idiv mod) and Negate on two int64 operands,
// and a double's truncation to an integer through idiv and through a cast of
// the double and of a decimal. A result inside int64 must equal the exact
// value; one outside must raise FOAR0002 (arithmetic) or FOCA0003 (a cast).
func FuzzIntegerArith(f *testing.F) {
	edges := []int64{0, 1, -1, math.MaxInt64, -math.MaxInt64, math.MinInt64, 1 << 53, -1 << 53}
	for _, x := range edges {
		for _, y := range edges {
			f.Add(x, y, float64(x))
		}
	}
	f.Add(int64(3), int64(-7), 0x1p63)
	f.Add(int64(-3), int64(7), -0x1p63)
	f.Fuzz(func(t *testing.T, x, y int64, d float64) {
		bx, by := big.NewInt(x), big.NewInt(y)
		for _, op := range []ArithOp{OpAdd, OpSub, OpMul, OpIDiv, OpMod} {
			want := new(big.Int)
			switch op {
			case OpAdd:
				want.Add(bx, by)
			case OpSub:
				want.Sub(bx, by)
			case OpMul:
				want.Mul(bx, by)
			case OpIDiv, OpMod:
				if y == 0 {
					continue // FOAR0001, a division's own error
				}
				// Quo and Rem truncate toward zero, as idiv and mod do.
				if op == OpIDiv {
					want.Quo(bx, by)
				} else {
					want.Rem(bx, by)
				}
			}
			got, err := Arith(Integer(x), Integer(y), op)
			checkExact(t, fmt.Sprintf("%d %s %d", x, op, y), got, err, want, "FOAR0002")
		}
		got, err := Negate(Integer(x))
		checkExact(t, fmt.Sprintf("-(%d)", x), got, err, new(big.Int).Neg(bx), "FOAR0002")

		if math.IsNaN(d) || math.IsInf(d, 0) {
			for _, c := range []struct {
				code string
				run  func() (Item, error)
			}{
				{"FOAR0002", func() (Item, error) { return Arith(Double(d), Integer(1), OpIDiv) }},
				{"FOCA0002", func() (Item, error) { return CastTo(Double(d), IntegerType) }},
			} {
				if got, err := c.run(); !hasCode(err, c.code) {
					t.Fatalf("%v to an integer = %v, %v; want %s", d, got, err, c.code)
				}
			}
			return
		}
		// A finite double is an exact big.Float; Int truncates toward zero.
		want, _ := new(big.Float).SetFloat64(d).Int(nil)
		got, err = Arith(Double(d), Integer(1), OpIDiv)
		checkExact(t, fmt.Sprintf("%v idiv 1", d), got, err, want, "FOAR0002")
		got, err = CastTo(Double(d), IntegerType)
		checkExact(t, fmt.Sprintf("xs:integer(%v)", d), got, err, want, "FOCA0003")
		got, err = CastTo(Decimal(d), IntegerType)
		checkExact(t, fmt.Sprintf("xs:integer(xs:decimal(%v))", d), got, err, want, "FOCA0003")
	})
}

// checkExact requires the exact value when it fits in int64 and the error
// code when it does not.
func checkExact(t *testing.T, what string, got Item, err error, want *big.Int, code string) {
	t.Helper()
	if !want.IsInt64() {
		if !hasCode(err, code) {
			t.Fatalf("%s = %v, %v; want %s (exact value %s)", what, got, err, code, want)
		}
		return
	}
	if err != nil || got != Integer(want.Int64()) {
		t.Fatalf("%s = %v, %v; want %s", what, got, err, want)
	}
}

func hasCode(err error, code string) bool {
	e, ok := err.(*Error)
	return ok && e.Code == code
}
