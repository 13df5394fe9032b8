package xmltree

import (
	"io"
	"strings"

	"lopsided/internal/obs"
)

// ParseReader parses a complete XML document from r and returns its
// document node. It is Parse over a sliding window instead of a string: the
// same scanner tokenizes both, so the language accepted and every
// *ParseError are the same by construction, and a file or network stream
// never needs a second in-memory copy.
func ParseReader(r io.Reader) (*Node, error) {
	return ParseReaderWith(r, ParseOptions{})
}

// ParseReaderWith is ParseReader with parse options.
func ParseReaderWith(r io.Reader, opts ParseOptions) (*Node, error) {
	doc, st, err := buildTree(NewScanner(r, opts), nil, nil)
	if err != nil {
		return nil, err
	}
	stream := &obs.Default().Stream
	stream.ReaderParses.Add(1)
	stream.BytesScanned.Add(st.BytesRead)
	return doc, nil
}

// ---- Projection ----

// ProjStep is one step of a root-anchored projection path: a name test,
// optionally reachable at any depth (Desc) instead of as a direct child,
// optionally narrowed by [@name='value'] conditions that must all hold.
// Name tests use the engine's textual matching: "x", "*", "pre:*", "*:local".
type ProjStep struct {
	Name  string
	Desc  bool
	Conds []AttrCond
}

// AttrCond is one [@Name='Value'] condition of a ProjStep: some attribute
// of the element has exactly that name and value (an untyped-vs-string
// general comparison is string equality).
type AttrCond struct {
	Name, Value string
}

// matches applies the step's name test and conditions to a start tag.
func (st *ProjStep) matches(tok *Token) bool {
	if !NameTestMatches(st.Name, tok.Name) {
		return false
	}
conds:
	for _, c := range st.Conds {
		for _, a := range tok.Attrs {
			if a.Name == c.Name && a.Value == c.Value {
				continue conds
			}
		}
		return false
	}
	return true
}

// ProjPath is one root-anchored path the query can touch. Elements matching
// the full step sequence are retained; Subtree retains their entire
// subtrees (value uses: atomization, serialization, kind tests below),
// while without it only the element shell (name + ancestry) survives
// (existence/count/name uses). Attrs lists attribute names required on
// matching elements; "*" keeps all of them.
type ProjPath struct {
	Steps   []ProjStep
	Subtree bool
	Attrs   []string
}

// Projection is the static path analysis' verdict: the set of paths a
// query can navigate into its context document. ParseProjected builds only
// matching subtrees (plus the ancestor shells needed to reach them) and
// skips everything else.
type Projection struct {
	Paths []ProjPath
}

// EverythingNeeded reports whether the projection retains the whole
// document anyway (a Subtree mark on the root path), in which case
// projected parsing degenerates to a full parse.
func (p *Projection) EverythingNeeded() bool {
	for _, pp := range p.Paths {
		if len(pp.Steps) == 0 && pp.Subtree {
			return true
		}
	}
	return false
}

// String renders the path set the way EXPLAIN prints it.
func (p *Projection) String() string {
	if len(p.Paths) == 0 {
		return "(empty)"
	}
	var b strings.Builder
	for i, pp := range p.Paths {
		if i > 0 {
			b.WriteString(" ")
		}
		if len(pp.Steps) == 0 {
			b.WriteString("/")
		}
		for _, st := range pp.Steps {
			if st.Desc {
				b.WriteString("//")
			} else {
				b.WriteString("/")
			}
			b.WriteString(st.Name)
			for _, c := range st.Conds {
				b.WriteString("[@" + c.Name + "='" + c.Value + "']")
			}
		}
		for _, a := range pp.Attrs {
			b.WriteString("/@")
			b.WriteString(a)
		}
		if pp.Subtree {
			b.WriteString("#subtree")
		}
	}
	return b.String()
}

// NameTestMatches applies a name test ("x", "*", "p:*" or "*:x") to a node
// name textually. It is the one name rule: the evaluator's node tests, the
// projected parse, the stream tier and XSLT match patterns all use it.
func NameTestMatches(test, name string) bool {
	switch {
	case test == "*":
		return true
	case strings.HasSuffix(test, ":*"):
		prefix := strings.TrimSuffix(test, ":*")
		if i := strings.IndexByte(name, ':'); i >= 0 {
			return name[:i] == prefix
		}
		return prefix == ""
	case strings.HasPrefix(test, "*:"):
		local := strings.TrimPrefix(test, "*:")
		if i := strings.IndexByte(name, ':'); i >= 0 {
			return name[i+1:] == local
		}
		return name == local
	}
	return test == name
}

// ProjStats reports what one projected parse did.
type ProjStats struct {
	// BytesRead is the input size consumed.
	BytesRead int64
	// ElementsRetained counts elements present in the projected tree.
	ElementsRetained int64
	// ElementsPruned counts elements seen in the input but not retained —
	// dropped candidate shells plus whole subtrees skipped without
	// building.
	ElementsPruned int64
}

// projState is one NFA state: the next step of Paths[path] to match.
type projState struct {
	path, step int
}

// projFrame is the per-open-element matching state.
type projFrame struct {
	node *Node
	// subtree marks the keep-everything region below a Subtree match.
	subtree bool
	// keep marks a terminal path match (the shell survives regardless of
	// descendants).
	keep bool
	// childKept records that some descendant was retained, so this shell
	// is a required ancestor.
	childKept bool
	// states are the NFA states applied to this frame's children.
	states []projState
}

// ParseProjected parses a document from r, building only the parts the
// projection says the query can touch. The result is a normal frozen tree:
// indexes, serialization, and the whole engine work on it unchanged.
func ParseProjected(r io.Reader, proj *Projection) (*Node, error) {
	doc, _, err := ParseProjectedStats(r, proj, ParseOptions{})
	return doc, err
}

// ParseProjectedStats is ParseProjected with parse options and per-parse
// statistics. A nil projection retains everything. A failed parse still
// reports the bytes it read.
func ParseProjectedStats(r io.Reader, proj *Projection, opts ParseOptions) (*Node, ProjStats, error) {
	doc, st, err := buildTree(NewScanner(r, opts), proj, nil)
	if err != nil {
		return nil, st, err
	}
	stream := &obs.Default().Stream
	stream.ProjectedParses.Add(1)
	stream.BytesScanned.Add(st.BytesRead)
	stream.ElementsRetained.Add(st.ElementsRetained)
	stream.ElementsPruned.Add(st.ElementsPruned)
	// buildTree numbered the nodes as it made them; publish that with the
	// freeze, before anyone else has seen the tree.
	Freeze(doc).setFlag(flagNumbered)
	return doc, st, nil
}

// ScanMatches reads a document from r to its end and calls onMatch, in
// document order, with the start tag of every element path selects — once
// per element, however many ways the path reaches it. Nothing outside a
// match is built: when path.Subtree is set, subtree is the element's own
// node, complete (attributes, content, nested matches included) once the
// scan returns, and detached from any document; otherwise subtree is nil
// and no node is allocated at all, so what stays reachable after the scan
// is what onMatch kept and nothing else — O(depth) working memory. It
// returns the number of bytes consumed.
func ScanMatches(r io.Reader, opts ParseOptions, path ProjPath, onMatch func(tok Token, subtree *Node)) (int64, error) {
	_, st, err := buildTree(NewScanner(r, opts), &Projection{Paths: []ProjPath{path}}, onMatch)
	return st.BytesRead, err
}

// buildTree is the one path matcher and tree builder: it consumes s to the
// end and builds what proj retains. The full parse is the degenerate
// projection — nil, or one that needs everything — whose document frame is
// already inside a keep-everything region. The tree is returned unfrozen,
// its nodes carrying pre-order ordinals in creation order (pruned branches
// leave gaps) that mean nothing until a caller declares the root numbered.
//
// With a sink (ScanMatches) every terminal match is reported instead, and
// nothing outside a matched subtree is retained: there is no document node,
// so a frame outside a Subtree region has no node, and the three places
// that would hang something on such a frame — allocating an element,
// attaching a finished one to its parent, keeping a document-level comment
// or PI — find none and do nothing.
func buildTree(s *Scanner, proj *Projection, sink func(Token, *Node)) (*Node, ProjStats, error) {
	var doc *Node
	if sink == nil {
		doc = NewDocument()
	}
	// The document frame: every path starts here. A path with no steps
	// marks the document itself (count(/), attrs are meaningless on it).
	root := projFrame{node: doc, keep: true}
	if proj == nil || proj.EverythingNeeded() {
		root.subtree = true
	} else {
		for i, pp := range proj.Paths {
			if len(pp.Steps) > 0 {
				root.states = append(root.states, projState{path: i, step: 0})
			}
		}
	}
	frames := []projFrame{root}
	var st ProjStats
	var elementsSeen int64
	var ord uint32 // the document node keeps 0
	numbered := func(n *Node) *Node {
		ord++
		n.ord = ord
		return n
	}
	for {
		tok, err := s.Next()
		if err != nil {
			return nil, ProjStats{BytesRead: s.BytesRead()}, err
		}
		f := &frames[len(frames)-1]
		switch tok.Kind {
		case TokStartElement:
			elementsSeen++
			nf := projFrame{subtree: f.subtree}
			var attrFilter []string // nil = none, ["*"] = all
			if f.subtree {
				attrFilter = starAttr
			}
			for _, stt := range f.states {
				step := &proj.Paths[stt.path].Steps[stt.step]
				if step.Desc {
					nf.states = addState(nf.states, stt)
				}
				if !step.matches(&tok) {
					continue
				}
				if stt.step+1 == len(proj.Paths[stt.path].Steps) {
					pp := &proj.Paths[stt.path]
					nf.keep = true
					if pp.Subtree {
						nf.subtree = true
						attrFilter = starAttr
					}
					if attrFilter == nil || attrFilter[0] != "*" {
						attrFilter = append(attrFilter, pp.Attrs...)
					}
				} else {
					nf.states = addState(nf.states, projState{path: stt.path, step: stt.step + 1})
				}
			}
			if !nf.keep && !nf.subtree && len(nf.states) == 0 {
				// Dead branch: nothing below can match. Validate and skip
				// the whole subtree without building anything.
				if err := s.SkipElement(); err != nil {
					return nil, ProjStats{BytesRead: s.BytesRead()}, err
				}
				continue
			}
			if f.node != nil || nf.subtree {
				nf.node = numbered(NewElement(tok.Name))
				for _, a := range tok.Attrs {
					if attrWanted(attrFilter, a.Name) {
						numbered(nf.node.SetAttr(a.Name, a.Value))
					}
				}
			}
			if sink != nil && nf.keep {
				sink(tok, nf.node)
			}
			frames = append(frames, nf)
		case TokEndElement:
			done := *f
			frames = frames[:len(frames)-1]
			parent := &frames[len(frames)-1]
			if parent.node != nil && (done.keep || done.subtree || done.childKept) {
				parent.node.AppendChild(done.node)
				parent.childKept = true
				st.ElementsRetained++
			}
		case TokText:
			if f.subtree {
				f.node.AppendChild(numbered(NewText(tok.Data)))
			}
		case TokComment:
			// Comments survive inside subtree regions and at document
			// level (where only kind tests — which force a subtree mark —
			// or whole-document serialization can observe them).
			if f.node != nil && (f.subtree || len(frames) == 1) {
				f.node.AppendChild(numbered(NewComment(tok.Data)))
			}
		case TokPI:
			if f.node != nil && (f.subtree || len(frames) == 1) {
				f.node.AppendChild(numbered(NewPI(tok.Name, tok.Data)))
			}
		case TokEOF:
			st.BytesRead = s.BytesRead()
			st.ElementsPruned = elementsSeen + s.ElementsSkipped() - st.ElementsRetained
			return doc, st, nil
		}
	}
}

// addState adds st to a frame's live states unless it is already there.
// Repeated descendant steps over same-named nesting (//a//a//a on nested
// <a>) reach one state many ways; without this the set grows with depth
// instead of staying bounded by the total number of steps.
func addState(states []projState, st projState) []projState {
	for _, have := range states {
		if have == st {
			return states
		}
	}
	return append(states, st)
}

// starAttr is the shared "keep all attributes" filter.
var starAttr = []string{"*"}

func attrWanted(filter []string, name string) bool {
	for _, f := range filter {
		if f == "*" || f == name {
			return true
		}
	}
	return false
}
