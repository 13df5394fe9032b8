package funclib

// TestRowsSound holds every built-in's row to the implementation registered
// beside it: each function is called at every arity up to three over the
// cross product of a value pool, under no focus, a node focus and an atomic
// focus, and whatever the call did must be something its row allows.

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
)

// probeCtx is a Context that records what a call asked of it.
type probeCtx struct {
	focus            xdm.Item // nil: no focus
	readItem, readAt bool
	traced           bool
}

func (c *probeCtx) FocusItem() (xdm.Item, error) {
	c.readItem = true
	if c.focus == nil {
		return nil, xdm.Errf("XPDY0002", "no context item")
	}
	return c.focus, nil
}

func (c *probeCtx) at() (int, error) {
	c.readAt = true
	if c.focus == nil {
		return 0, xdm.Errf("XPDY0002", "no context item")
	}
	return 1, nil
}
func (c *probeCtx) FocusPos() (int, error)  { return c.at() }
func (c *probeCtx) FocusSize() (int, error) { return c.at() }
func (c *probeCtx) Trace([]string)          { c.traced = true }
func (c *probeCtx) Doc(uri string) (xdm.Sequence, error) {
	return nil, xdm.Errf("FODC0002", "no document %q", uri)
}

// rowPool is the argument pool: the empty sequence, one item of every kind
// with the awkward members of each (the empty string, a malformed regular
// expression, zero, a negative, a non-codepoint, the largest integer, NaN,
// infinity, numeric and non-numeric untyped values, both node kinds), and
// two-item sequences of nodes, of atomics and of both.
func rowPool() []xdm.Sequence {
	el := xmltree.NewElement("e")
	el.AppendChild(xmltree.NewText("7"))
	el.AppendChild(xmltree.NewElement("c"))
	attr := xmltree.NewAttr("a", "x")
	pool := []xdm.Sequence{xdm.Empty}
	for _, it := range []xdm.Item{
		xdm.String(""), xdm.String("a"), xdm.String("["), xdm.String("b c"),
		xdm.Integer(0), xdm.Integer(-3), xdm.Integer(2), xdm.Integer(1114112), xdm.Integer(math.MaxInt64),
		xdm.Decimal(1.5), xdm.Double(2.5), xdm.Double(math.NaN()), xdm.Double(math.Inf(1)),
		xdm.Boolean(true), xdm.Untyped("42"), xdm.Untyped("x"),
		xdm.NewNode(el), xdm.NewNode(attr),
	} {
		pool = append(pool, xdm.Singleton(it))
	}
	return append(pool,
		xdm.Sequence{xdm.NewNode(el), xdm.NewNode(attr)},
		xdm.Sequence{xdm.Integer(1), xdm.Integer(2)},
		xdm.Sequence{xdm.NewNode(el), xdm.String("a")})
}

// itemKey identifies an item: a node by identity, an atomic value by type
// and lexical form (so that NaN is itself).
func itemKey(it xdm.Item) string {
	if n, ok := xdm.IsNode(it); ok {
		return fmt.Sprintf("node %p", n)
	}
	return it.TypeName() + " " + it.StringValue()
}

// shells replaces every element by a childless element of the same name:
// what a Shell row may observe of an argument.
func shells(s xdm.Sequence) xdm.Sequence {
	out := make(xdm.Sequence, len(s))
	for i, it := range s {
		out[i] = it
		if n, ok := xdm.IsNode(it); ok && n.Kind == xmltree.ElementNode {
			out[i] = xdm.NewNode(xmltree.NewElement(n.Name))
		}
	}
	return out
}

func render(s xdm.Sequence, err error) string {
	if err != nil {
		return "!" + err.Error()
	}
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = it.TypeName() + " " + it.StringValue()
	}
	return strings.Join(parts, ", ")
}

func TestRowsSound(t *testing.T) {
	pool := rowPool()
	foci := []xdm.Item{nil, pool[17][0], xdm.String("a")}
	calls := 0
	for name, rows := range registry {
		for arity := 0; arity <= 3; arity++ {
			f, ok := Lookup(name, arity)
			if !ok {
				continue
			}
			if !slices.Contains(rows, f) {
				t.Fatalf("Lookup(%s, %d) answers with a row registered elsewhere", name, arity)
			}
			args := make([]xdm.Sequence, arity)
			var each func(i int)
			each = func(i int) {
				if i < arity {
					for _, v := range pool {
						args[i] = v
						each(i + 1)
					}
					return
				}
				for _, focus := range foci {
					calls++
					checkCall(t, f, args, focus)
				}
			}
			each(0)
		}
	}
	if calls < 100_000 {
		t.Errorf("only %d calls probed", calls)
	}
}

var failures int

// checkCall makes one call and checks the outcome against the row.
func checkCall(t *testing.T, f *Func, args []xdm.Sequence, focus xdm.Item) {
	ctx := &probeCtx{focus: focus}
	out, err := f.Call(ctx, slices.Clone(args))
	fail := func(format string, a ...any) {
		t.Helper()
		shown := make([]string, len(args))
		for i, arg := range args {
			shown[i] = "(" + render(arg, nil) + ")"
		}
		t.Errorf("%s(%s) = %s: %s", f.Name, strings.Join(shown, ", "), render(out, err), fmt.Sprintf(format, a...))
		if failures++; failures >= 25 {
			t.Fatal("and more")
		}
	}
	// Focus, trace: the call asks of the evaluator only what the row says.
	if ctx.readItem && !f.ReadsItem || ctx.readAt && !f.ReadsPosition {
		fail("reads a focus its row does not mention")
	}
	if (f.ReadsItem || f.ReadsPosition) && focus == nil && err == nil {
		fail("a focus reader succeeded without a focus")
	}
	if ctx.traced != f.Emits {
		fail("traced = %v, row says Emits = %v", ctx.traced, f.Emits)
	}
	// What flows in, and whether its count fits the row's clamp.
	var in xdm.Sequence
	bounded := true
	for i, arg := range args {
		if f.Flows(i, len(args)) {
			in = append(in, arg...)
		} else if len(arg) > 1 {
			bounded = false
		}
	}
	admits := func(n int) bool { return n >= f.Occ.Lo() && (f.Occ.Hi() == 2 || n <= f.Occ.Hi()) }
	if err != nil {
		if fits := len(f.Flow) == 0 || admits(len(in)); fits && (f.Total || f.TotalIfBounded && bounded) {
			fail("raised, and the row says it cannot")
		}
		return
	}
	if !admits(len(out)) {
		fail("%d items, row says %q", len(out), f.Occ)
	}
	if len(f.Flow) == 0 {
		for _, it := range out {
			if _, isNode := xdm.IsNode(it); isNode && f.NodeFree || !isNode && !xdm.KindOf(it).Sub(f.Kinds) {
				fail("holds a %s, row says %s (node-free %v)", it.TypeName(), f.Kinds, f.NodeFree)
			}
		}
	} else {
		// Every result item is one that flowed in (atomized by a node-free
		// row), and all of them arrive unless the row is Partial.
		if f.NodeFree {
			in = xdm.Atomize(in)
		}
		flowed := map[string]int{}
		for _, it := range in {
			flowed[itemKey(it)]++
		}
		for _, it := range out {
			if flowed[itemKey(it)]--; flowed[itemKey(it)] < 0 {
				fail("holds %s, which no flow argument does", itemKey(it))
			}
		}
		if !f.Partial && len(out) != len(in) {
			fail("%d of %d flowed items arrived and the row is not Partial", len(out), len(in))
		}
	}
	// A Shell row sees names, counts and existence: emptied elements do not
	// change its answer.
	if f.Shell {
		hollow := make([]xdm.Sequence, len(args))
		for i, arg := range args {
			hollow[i] = shells(arg)
		}
		hctx := &probeCtx{focus: focus}
		if n, ok := xdm.IsNode(focus); focus != nil && ok {
			hctx.focus = shells(xdm.Singleton(xdm.NewNode(n)))[0]
		}
		if got, want := render(f.Call(hctx, hollow)), render(out, err); got != want {
			fail("over shells it answers %s", got)
		}
	}
}
