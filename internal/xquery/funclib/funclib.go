// Package funclib implements the built-in function library of the XQuery
// subset: the fn: functions the paper's document generator leaned on, the
// xs: constructor functions, and the two diagnostic functions whose
// behavior the paper turns on — fn:error (the original "print and kill the
// program" debugging tool) and fn:trace (variadic, returning its *last*
// argument, as Galax implemented it after early users complained).
package funclib

import (
	"math"
	"slices"
	"strings"
	"sync"

	"lopsided/internal/xdm"
)

// Context is what built-in functions may ask of the evaluator. The
// interpreter implements it; tests may provide fakes.
type Context interface {
	// FocusItem returns the context item, or an XPDY0002 error if absent.
	FocusItem() (xdm.Item, error)
	// FocusPos returns position() for the current focus.
	FocusPos() (int, error)
	// FocusSize returns last() for the current focus.
	FocusSize() (int, error)
	// Trace reports a fn:trace call to the host (already-serialized values).
	Trace(values []string)
	// Doc resolves a document URI to its document node sequence.
	Doc(uri string) (xdm.Sequence, error)
	// ChargeSteps charges n evaluation steps and ChargeBytes n bytes of
	// constructed output to the evaluation's budget; a non-nil return is
	// the budget-exhausted error to propagate. Built-ins with
	// data-dependent loops or output — distinct-values, string-join,
	// concat — charge through them, so a query cannot dodge its step or
	// output-byte limits by hiding work inside a function call. An
	// unlimited context returns nil.
	ChargeSteps(n int) error
	ChargeBytes(n int) error
}

// Func is one built-in at one arity range: how to call it and every static
// fact the passes over the AST may assume of a call to it. The row is written
// once, at the register call beside the implementation, and the shapes
// inference, the projection analysis and the access-path planner read it
// through Lookup; TestRowsSound holds each row to its implementation.
//
// Soundness contract: a row may under-promise (an occurrence wider than
// reality, Total false for a function that never raises) but must never
// over-promise.
type Func struct {
	Name             string
	minArgs, maxArgs int // maxArgs -1 = variadic
	Call             func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error)

	// Occ bounds the result's item count; Kinds its atomic items; NodeFree
	// reports that it never holds a node.
	Occ      xdm.Occurrence
	Kinds    xdm.Kinds
	NodeFree bool
	// Total reports the call itself cannot raise a non-limit error, whatever
	// the arguments hold (argument evaluation is the caller's problem;
	// resource-limit LOPS* errors are exempt everywhere). TotalIfBounded
	// weakens that to "provided every argument that does not flow holds at
	// most one item" — the stringArg/numArg helpers, whose only failure is
	// Atomize(...).AtMostOne on a longer argument.
	Total, TotalIfBounded bool

	// Flow lists the arguments whose items the result is made of (-1: the
	// last). The result is then those arguments' items in some order — their
	// atomization if the row is NodeFree — and Occ, Kinds and Total are read
	// against what flows in: the count is clamped to Occ, the call raising
	// exactly when it does not fit (zero-or-one, one-or-more, exactly-one),
	// and Partial reports that items may be left out (subsequence, remove).
	Flow    []int
	Partial bool

	// Shell reports the call observes its arguments as shells — existence,
	// count, names — where the default is to consume them whole (atomize,
	// compare, serialize). Flow arguments pass through unobserved unless the
	// call Emits: hands every argument to the host as well (fn:trace).
	// Escapes reports the result navigates out of its argument (fn:root).
	Shell, Emits, Escapes bool

	// ReadsItem reports the call reads the context item (the zero-argument
	// forms, which raise XPDY0002 without one), ReadsPosition that it reads
	// the context position or size.
	ReadsItem, ReadsPosition bool
}

// Flows reports whether argument i of a call with n arguments is one of the
// row's flow arguments.
func (f *Func) Flows(i, n int) bool {
	return slices.Contains(f.Flow, i) || slices.Contains(f.Flow, i-n)
}

// Shorthand for the rows: the result's bounds, then what can go wrong.
func row(occ xdm.Occurrence, kinds xdm.Kinds) Func { // node-free result; may raise
	return Func{Occ: occ, Kinds: kinds, NodeFree: true}
}
func nodes(occ xdm.Occurrence, kinds xdm.Kinds) Func { // may hold nodes; may raise
	return Func{Occ: occ, Kinds: kinds}
}
func (f Func) total() Func           { f.Total = true; return f }          // at any argument shape
func (f Func) bounded() Func         { f.TotalIfBounded = true; return f } // when the arguments are singleton-bounded
func (f Func) shell() Func           { f.Shell = true; return f }
func (f Func) partial() Func         { f.Partial = true; return f }
func (f Func) from(args ...int) Func { f.Flow = args; return f } // made of these arguments' items

var registry = map[string][]*Func{}

// register files a row under its name for arities minArgs..maxArgs. A
// built-in cannot be registered without its facts.
func register(name string, minArgs, maxArgs int, f Func, call func(Context, []xdm.Sequence) (xdm.Sequence, error)) {
	f.Name, f.minArgs, f.maxArgs, f.Call = name, minArgs, maxArgs, call
	registry[name] = append(registry[name], &f)
}

// registerFocus registers a function whose zero-argument form reads the
// context item in place of its argument: that form is a row of its own,
// never total (XPDY0002 without a focus).
func registerFocus(name string, f Func, call func(Context, []xdm.Sequence) (xdm.Sequence, error)) {
	atFocus := f
	atFocus.Total, atFocus.TotalIfBounded, atFocus.ReadsItem = false, false, true
	register(name, 0, 0, atFocus, call)
	register(name, 1, 1, f, call)
}

// ctorFuncs caches the xs:/xdt: constructor rows by type name, so repeated
// lookups of the same constructor return one shared instance.
var ctorFuncs sync.Map // typeName string -> *Func

// Lookup finds a built-in by name and arity. The fn: prefix is optional, as
// it is the default function namespace, and this is the one place that says
// so. A name in a schema namespace is a constructor function: `cast as` in
// call syntax, at most one result item of the named type's kind. The returned
// *Func is shared and immutable: callers may hold it and Call it
// concurrently. When the name is known but not at this arity, ok is false and
// the name's first row is still returned, for the analyses whose verdict on
// such a call (it raises XPST0017 once its arguments are evaluated) must not
// depend on the count.
func Lookup(name string, arity int) (f *Func, ok bool) {
	rows := registry[strings.TrimPrefix(name, "fn:")]
	for _, f := range rows {
		if arity >= f.minArgs && (f.maxArgs < 0 || arity <= f.maxArgs) {
			return f, true
		}
	}
	if rows != nil {
		return rows[0], false
	}
	// Asked of the name first: every analysis looks a user-function name up
	// here, and TypeNamed would build it an abstract type row just to say no.
	if !xdm.IsSchemaName(name) {
		return nil, false
	}
	if cached, found := ctorFuncs.Load(name); found {
		return cached.(*Func), arity == 1
	}
	t, _ := xdm.TypeNamed(name)
	ctor := row(xdm.Optional, t.Yields)
	ctor.Name, ctor.minArgs, ctor.maxArgs = name, 1, 1
	ctor.Call = func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		it, err := xdm.Atomize(args[0]).AtMostOne()
		if err != nil {
			return nil, err
		}
		if it == nil {
			return xdm.Empty, nil
		}
		out, err := xdm.CastTo(it, t)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(out), nil
	}
	cached, _ := ctorFuncs.LoadOrStore(name, &ctor)
	return cached.(*Func), arity == 1
}

// Names returns the registered built-in names (for diagnostics and docs).
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	return out
}

// ---- helpers ----

// stringArg extracts an optional-string argument: empty sequence yields "".
func stringArg(s xdm.Sequence) (string, error) {
	it, err := xdm.Atomize(s).AtMostOne()
	if err != nil {
		return "", err
	}
	if it == nil {
		return "", nil
	}
	return it.StringValue(), nil
}

// numArg extracts a required numeric argument as float64.
func numArg(s xdm.Sequence) (float64, bool, error) {
	it, err := xdm.Atomize(s).AtMostOne()
	if err != nil {
		return 0, false, err
	}
	if it == nil {
		return 0, false, nil
	}
	return xdm.NumberOf(it), true, nil
}

// intArg extracts a required integer argument.
func intArg(s xdm.Sequence) (int64, error) {
	it, err := xdm.Atomize(s).One()
	if err != nil {
		return 0, err
	}
	cast, err := xdm.CastTo(it, xdm.IntegerType)
	if err != nil {
		return 0, err
	}
	return int64(cast.(xdm.Integer)), nil
}

func singleton(it xdm.Item) (xdm.Sequence, error) { return xdm.Singleton(it), nil }

// ErrorValue is the Go error raised by fn:error; the interpreter surfaces
// it with position information. It carries the user's code and description,
// the only mechanism the paper's team had for aborting with a message.
type ErrorValue struct {
	Code string
	Desc string
}

// Error implements the error interface.
func (e *ErrorValue) Error() string {
	if e.Desc == "" {
		return e.Code
	}
	return e.Code + ": " + e.Desc
}

func init() {
	registerSequenceFuncs()
	registerStringFuncs()
	registerNumericFuncs()
	registerBooleanFuncs()
	registerNodeFuncs()
	registerDiagnosticFuncs()
}

func registerDiagnosticFuncs() {
	// fn:error() / fn:error($desc) / fn:error($code, $desc).
	// In the paper's era this "prints $msg on the console and kills the
	// program" — the team's primary debugging tool before trace existed.
	register("error", 0, 2, row(xdm.Zero, xdm.KNone), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		ev := &ErrorValue{Code: "FOER0000"}
		switch len(args) {
		case 1:
			ev.Desc = args[0].StringJoin()
		case 2:
			ev.Code = args[0].StringJoin()
			ev.Desc = args[1].StringJoin()
		}
		return nil, ev
	})
	// fn:trace(args...) prints its arguments and returns the value of the
	// LAST one — the Galax behavior the paper describes ("a trace function
	// which prints its arguments and returns the value of the last one").
	traced := nodes(xdm.ZeroOrMore, xdm.KNone).from(-1).total()
	traced.Emits = true
	register("trace", 1, -1, traced, func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		vals := make([]string, len(args))
		for i, a := range args {
			vals[i] = a.StringJoin()
		}
		ctx.Trace(vals)
		return args[len(args)-1], nil
	})
	register("doc", 1, 1, nodes(xdm.ZeroOrMore, xdm.KNone), func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		uri, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		if uri == "" {
			return xdm.Empty, nil
		}
		return ctx.Doc(uri)
	})
}

func registerBooleanFuncs() {
	register("true", 0, 0, row(xdm.One, xdm.KBool).total(), func(_ Context, _ []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.BoolSeq(true), nil
	})
	register("false", 0, 0, row(xdm.One, xdm.KBool).total(), func(_ Context, _ []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.BoolSeq(false), nil
	})
	register("not", 1, 1, row(xdm.One, xdm.KBool).bounded().shell(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		b, err := xdm.EffectiveBool(args[0])
		if err != nil {
			return nil, err
		}
		return xdm.BoolSeq(!b), nil
	})
	register("boolean", 1, 1, row(xdm.One, xdm.KBool).bounded().shell(), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
		b, err := xdm.EffectiveBool(args[0])
		if err != nil {
			return nil, err
		}
		return xdm.BoolSeq(b), nil
	})
}

func registerNumericFuncs() {
	registerFocus("number", row(xdm.One, xdm.KDbl).bounded(), func(ctx Context, args []xdm.Sequence) (xdm.Sequence, error) {
		var it xdm.Item
		if len(args) == 0 {
			var err error
			it, err = ctx.FocusItem()
			if err != nil {
				return nil, err
			}
		} else {
			var err error
			it, err = xdm.Atomize(args[0]).AtMostOne()
			if err != nil {
				return nil, err
			}
		}
		if it == nil {
			return singleton(xdm.Double(math.NaN()))
		}
		return singleton(xdm.Double(xdm.NumberOf(it)))
	})
	// The rounding family: an integer is whole and returned as it is (abs
	// negates it through xdm.Negate); a decimal or double rounds as a double.
	unary := func(name string, f func(float64) float64) {
		register(name, 1, 1, row(xdm.Optional, xdm.KNum), func(_ Context, args []xdm.Sequence) (xdm.Sequence, error) {
			it, err := xdm.Atomize(args[0]).AtMostOne()
			if err != nil {
				return nil, err
			}
			switch v := it.(type) {
			case nil:
				return xdm.Empty, nil
			case xdm.Integer:
				if name == "abs" && v < 0 {
					if it, err = xdm.Negate(v); err != nil {
						return nil, err
					}
				}
				return singleton(it)
			case xdm.Double:
				return singleton(xdm.Double(f(float64(v))))
			case xdm.Decimal, xdm.Untyped:
				return singleton(xdm.Decimal(f(xdm.NumberOf(v))))
			}
			return nil, xdm.Errf("XPTY0004", "%s of %s", name, it.TypeName())
		})
	}
	unary("abs", math.Abs)
	unary("ceiling", math.Ceil)
	unary("floor", math.Floor)
	unary("round", func(f float64) float64 {
		// XPath round: round half toward positive infinity.
		return math.Floor(f + 0.5)
	})
	unary("round-half-to-even", math.RoundToEven)
}
