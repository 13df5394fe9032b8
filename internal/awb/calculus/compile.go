package calculus

import (
	"fmt"
	"strings"

	"lopsided/internal/awb"
	"lopsided/internal/xmltree"
	"lopsided/xq"
)

// This file is the paper's other implementation: the calculus compiled to
// XQuery and evaluated over the exported model XML. Each pipeline step
// becomes a let-binding; the type hierarchies are resolved by recursive
// XQuery functions walking the embedded <metamodel>. It is deliberately
// written the way the paper's generator was — straightforward FLWOR over
// the whole document — which is precisely what made calling XQuery from the
// UI "preposterously inefficient".

// xqPrelude declares the helper functions every compiled query uses.
const xqPrelude = `
declare function local:is-node-subtype($mm, $t, $anc) {
  if ($t = $anc) then true()
  else
    let $nt := $mm/node-type[@name = $t]
    return
      if (empty($nt)) then false()
      else if (empty($nt[1]/@parent)) then false()
      else local:is-node-subtype($mm, string($nt[1]/@parent), $anc)
};
declare function local:is-rel-subtype($mm, $t, $anc) {
  if ($t = $anc) then true()
  else
    let $rt := $mm/relation-type[@name = $t]
    return
      if (empty($rt)) then false()
      else if (empty($rt[1]/@parent)) then false()
      else local:is-rel-subtype($mm, string($rt[1]/@parent), $anc)
};
declare function local:label($n) {
  if ($n/property[@name = "label"]) then string($n/property[@name = "label"][1])
  else if ($n/property[@name = "name"]) then string($n/property[@name = "name"][1])
  else string($n/@id)
};
`

// xqString renders s as an XQuery string literal.
func xqString(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// CompileXQuery renders the query as a complete XQuery main module that,
// evaluated with an exported model document as the context item, returns
// the matching node IDs as strings.
func (q *Query) CompileXQuery() string {
	var b strings.Builder
	b.WriteString(xqPrelude)
	b.WriteString("\nlet $root := /awb-model\nlet $mm := $root/metamodel\n")
	cur := "$s0"
	if q.StartID != "" {
		fmt.Fprintf(&b, "let $s0 := $root/node[@id = %s]\n", xqString(q.StartID))
	} else {
		fmt.Fprintf(&b,
			"let $s0 := for $n in $root/node where local:is-node-subtype($mm, string($n/@type), %s) return $n\n",
			xqString(q.StartType))
	}
	for i, step := range q.Steps {
		next := fmt.Sprintf("$s%d", i+1)
		switch s := step.(type) {
		case Follow:
			endpoint, other := "@source", "@target"
			if s.Backward {
				endpoint, other = "@target", "@source"
			}
			fmt.Fprintf(&b, "let %s :=\n  for $n in %s\n  for $r in $root/relation[%s = string($n/@id)]\n  where local:is-rel-subtype($mm, string($r/@type), %s)\n",
				next, cur, endpoint, xqString(s.Relation))
			if s.TargetType == "" {
				fmt.Fprintf(&b, "  return $root/node[@id = string($r/%s)]\n", other)
			} else {
				fmt.Fprintf(&b,
					"  return (for $t in $root/node[@id = string($r/%s)] where local:is-node-subtype($mm, string($t/@type), %s) return $t)\n",
					other, xqString(s.TargetType))
			}
		case FilterType:
			fmt.Fprintf(&b,
				"let %s := for $n in %s where local:is-node-subtype($mm, string($n/@type), %s) return $n\n",
				next, cur, xqString(s.Type))
		case FilterProperty:
			if s.Value == nil {
				fmt.Fprintf(&b, "let %s := for $n in %s where exists($n/property[@name = %s]) return $n\n",
					next, cur, xqString(s.Name))
			} else {
				fmt.Fprintf(&b,
					"let %s := for $n in %s where exists($n/property[@name = %s][string(.) = %s]) return $n\n",
					next, cur, xqString(s.Name), xqString(*s.Value))
			}
		case Distinct:
			fmt.Fprintf(&b,
				"let %s := for $n at $i in %s where empty((%s[position() lt $i])[@id = string($n/@id)]) return $n\n",
				next, cur, cur)
		case SortByLabel:
			fmt.Fprintf(&b, "let %s := for $n in %s order by local:label($n), string($n/@id) return $n\n",
				next, cur)
		case Limit:
			fmt.Fprintf(&b, "let %s := %s[position() le %d]\n", next, cur, s.N)
		}
		cur = next
	}
	fmt.Fprintf(&b, "return for $n in %s return string($n/@id)\n", cur)
	return b.String()
}

// Compiled is a calculus query compiled to XQuery, reusable across model
// documents.
type Compiled struct {
	Source string
	query  *xq.Query
}

// Compile compiles the query to XQuery once. Focus-rooted queries are only
// meaningful inside a document template, where the xqgen program interprets
// them directly; they cannot be compiled standalone.
func (q *Query) Compile() (*Compiled, error) {
	return q.CompileWith()
}

// CompileWith compiles the query to XQuery with engine options — the seam
// through which callers sandbox the interpreted path (xq.WithLimits).
func (q *Query) CompileWith(opts ...xq.Option) (*Compiled, error) {
	if q.StartFocus {
		return nil, fmt.Errorf("calculus: focus-rooted query cannot be compiled standalone")
	}
	src := q.CompileXQuery()
	compiled, err := xq.CompileCached(src, opts...)
	if err != nil {
		return nil, fmt.Errorf("calculus: compiled XQuery does not parse: %w\n%s", err, src)
	}
	return &Compiled{Source: src, query: compiled}, nil
}

// Run evaluates the compiled query against an exported model document and
// returns the matching node IDs. Per-evaluation engine options (xq.WithStats,
// xq.WithTracer, xq.WithLimits) pass straight through. Over a frozen modelDoc
// the query's keyed lookups — relation[@source = …], node[@id = …] — are
// index probes; over a mutable one they are scans.
func (c *Compiled) Run(modelDoc *xmltree.Node, opts ...xq.Option) ([]string, error) {
	out, err := c.query.Eval(nil, modelDoc, opts...)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(out))
	for i, it := range out {
		ids[i] = it.StringValue()
	}
	return ids, nil
}

// Explain returns the compiled plan dump of the underlying XQuery program
// (the awbquery -explain output).
func (c *Compiled) Explain() string { return c.query.Explain() }

// EvalXQuery is the full generation-era pipeline: export the model to XML,
// compile the query to XQuery, and interpret it. This is the path the
// paper's team judged too slow to serve the always-visible Omissions
// window; benchmarks quantify it.
func (q *Query) EvalXQuery(m *awb.Model) ([]string, error) {
	return q.EvalXQueryWith(m)
}

// EvalXQueryWith is EvalXQuery with engine options (typically sandbox
// limits) applied to the interpreted evaluation.
func (q *Query) EvalXQueryWith(m *awb.Model, opts ...xq.Option) ([]string, error) {
	compiled, err := q.CompileWith(opts...)
	if err != nil {
		return nil, err
	}
	return compiled.Run(xmltree.Freeze(m.ExportXML()))
}
