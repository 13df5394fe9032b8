// Package docgen defines the AWB document-generation template language and
// the contract both generator implementations satisfy.
//
// A template is "a mix of HTML directives and text, which are simply copied
// to the output document, and idiosyncratic AWB directives, which cause
// various more or less obvious sorts of behavior for their children."
//
// Directive vocabulary (everything else is copied through):
//
//	<for nodes="SEL">body</for>        iterate, setting the focus
//	<for><query>…</query>body</for>    iterate over a calculus query result
//	<if><test>COND…</test><then>…</then><else>…</else></if>
//	<label/>                           focus label text (marks visited)
//	<property name="P" required="?"/>  focus property text
//	<property-html name="P"/>          HTML-valued property, inlined as markup
//	<section><heading>…</heading>…</section>
//	<toc-here/>                        table-of-contents insertion point
//	<table-of-omissions types="T …"/>  unvisited nodes of the listed types
//	<matrix rows="SEL" cols="SEL" relation="R" corner="…" mark="…"/>
//	<marker name="PHRASE"/>            emits PHRASE as literal text
//	<replace-marker marker="PHRASE">content</replace-marker>
//
// Selectors (SEL): "all.TYPE", "follow.REL", "follow.REL.TYPE",
// "followback.REL". Conditions (COND): <focus-is-type type=""/>,
// <has-property name=""/>, <property-equals name="" value=""/>,
// <nonempty nodes="SEL"/>, <not>COND…</not>.
//
// Both implementations — the XQuery program in package xqgen and the native
// Go rewrite in package native — must produce byte-identical documents and
// problem lists for any valid template; the integration suite enforces it.
package docgen

import (
	"errors"

	"lopsided/internal/awb"
	"lopsided/internal/xmltree"
)

// Result is a generated document plus the secondary "problems" output
// stream — the stream XQuery couldn't produce directly, forcing the paper's
// team to bundle every stream into one big XML file and split it afterward.
type Result struct {
	Document *xmltree.Node // document node of the generated output
	Problems []string      // non-fatal generation notes, in document order
}

// Mode selects how a generator treats recoverable generation trouble.
type Mode int

// Generation modes.
const (
	// FailFast aborts on the first fatal trouble — the historical contract
	// of both generators.
	FailFast Mode = iota
	// Accumulate degrades gracefully: recoverable trouble is recorded in
	// Result.Problems and marked in the output document with a
	// <span class="problem"> element, and generation continues. Not every
	// implementation can offer this (the paper's C1 lesson: the XQuery
	// generator had no way to keep going past an exception).
	Accumulate
)

// String names the mode for diagnostics.
func (m Mode) String() string {
	if m == Accumulate {
		return "accumulate"
	}
	return "fail-fast"
}

// Generator is a document generator over an AWB model.
type Generator interface {
	// Generate renders the template (a document whose root is <template>)
	// against the model. Fatal generation trouble returns an error; soft
	// trouble lands in Result.Problems. Equivalent to GenerateMode with
	// FailFast.
	Generate(model *awb.Model, template *xmltree.Node) (*Result, error)
	// GenerateMode renders under the given degradation mode. An
	// implementation that cannot honor the mode returns ErrModeUnsupported.
	GenerateMode(model *awb.Model, template *xmltree.Node, mode Mode) (*Result, error)
	// Name identifies the implementation ("native" or "xquery").
	Name() string
}

// ErrModeUnsupported is returned by GenerateMode when an implementation
// cannot honor the requested degradation mode.
var ErrModeUnsupported = errors.New("docgen: generation mode not supported by this implementation")

// DocString serializes a result document compactly — the byte-comparison
// form used by the engine-parity tests and benchmarks.
func (r *Result) DocString() string {
	return r.Document.String()
}

// Directive names, shared by both implementations.
const (
	DirFor         = "for"
	DirIf          = "if"
	DirTest        = "test"
	DirThen        = "then"
	DirElse        = "else"
	DirLabel       = "label"
	DirProperty    = "property"
	DirPropHTML    = "property-html"
	DirSection     = "section"
	DirHeading     = "heading"
	DirTocHere     = "toc-here"
	DirOmissions   = "table-of-omissions"
	DirMatrix      = "matrix"
	DirMarker      = "marker"
	DirReplaceM    = "replace-marker"
	DirQuery       = "query"
	SectionClass   = "section"
	HeadingClass   = "section-heading"
	TocClass       = "toc"
	OmissionsClass = "omissions"
	MatrixClass    = "matrix"
	// ProblemClass marks the inline <span> a degraded (Accumulate-mode)
	// generation leaves where content could not be produced.
	ProblemClass = "problem"
)

// ProblemMissingProperty formats the shared problem message for a missing
// non-required property; both engines must agree byte-for-byte.
func ProblemMissingProperty(node, prop string) string {
	return "node " + node + " has no property \"" + prop + "\""
}
