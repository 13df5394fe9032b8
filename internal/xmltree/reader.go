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
	// states[st0:st1] of the builder's one state stack are the NFA states
	// applied to this frame's children.
	st0, st1 int
	// kids is where this frame's content starts on the pending stack: its
	// nattr attributes, then its children.
	kids, nattr int
	// mark is the slab's position before node was taken from it.
	mark slabMark
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
// is what onMatch kept and nothing else — O(depth) working memory. tok,
// Attrs included, is valid only during the call: copy what you keep. It
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
// Nodes come from a slab and lists from a pointer arena (both below): an
// element's attributes, pushed at its start tag, and then its children
// collect on one pending stack, and are carved into its one exact content
// list at its end tag. The scanner's token
// is read in place and only what a node keeps of it is copied; text in a
// frame outside a keep-everything region is never materialized, and a shell
// that ends with nothing kept below it gives its slots back.
//
// With a sink (ScanMatches) every terminal match is reported instead, and
// nothing outside a matched subtree is retained: there is no document node,
// so a frame outside a Subtree region has no node, and the three places
// that would hang something on such a frame — allocating an element,
// attaching a finished one to its parent, keeping a document-level comment
// or PI — find none and do nothing.
func buildTree(s *Scanner, proj *Projection, sink func(Token, *Node)) (*Node, ProjStats, error) {
	var (
		sl    slab
		arena ptrArena
		// The scratch stacks start on the goroutine stack; a deep or wide
		// document moves them to the heap once.
		frameBuf [16]projFrame
		stateBuf [16]projState
		pendBuf  [32]*Node
		attrBuf  [4]string
	)
	frames, states, pending := frameBuf[:0], stateBuf[:0], pendBuf[:0]
	var doc *Node
	if sink == nil {
		doc = sl.node(DocumentNode, "", "")
	}
	// The document frame: every path starts here. A path with no steps
	// marks the document itself (count(/), attrs are meaningless on it).
	root := projFrame{node: doc, keep: true}
	if proj == nil || proj.EverythingNeeded() {
		root.subtree = true
	} else {
		for i, pp := range proj.Paths {
			if len(pp.Steps) > 0 {
				states = append(states, projState{path: i, step: 0})
			}
		}
	}
	root.st1 = len(states)
	frames = append(frames, root)
	var st ProjStats
	var elementsSeen int64
	// add makes n the next item of parent's pending content.
	add := func(parent, n *Node) {
		n.Parent = parent
		pending = append(pending, n)
	}
	for {
		f := &frames[len(frames)-1]
		// Text arrives only where it is kept.
		s.dropText = !f.subtree
		if err := s.next(); err != nil {
			return nil, ProjStats{BytesRead: s.BytesRead()}, err
		}
		tok := &s.tok
		switch tok.Kind {
		case TokStartElement:
			elementsSeen++
			nf := projFrame{subtree: f.subtree, st0: len(states)}
			allAttrs, attrNames := f.subtree, attrBuf[:0]
			for i := f.st0; i < f.st1; i++ {
				stt := states[i]
				pp := &proj.Paths[stt.path]
				step := &pp.Steps[stt.step]
				if step.Desc {
					states = addState(states, nf.st0, stt)
				}
				if !step.matches(tok) {
					continue
				}
				if stt.step+1 == len(pp.Steps) {
					nf.keep = true
					if pp.Subtree {
						nf.subtree = true
						allAttrs = true
					}
					if !allAttrs {
						attrNames = append(attrNames, pp.Attrs...)
					}
				} else {
					states = addState(states, nf.st0, projState{path: stt.path, step: stt.step + 1})
				}
			}
			nf.st1 = len(states)
			if !nf.keep && !nf.subtree && nf.st0 == nf.st1 {
				// Dead branch: nothing below can match. Validate and skip
				// the whole subtree without building anything.
				if err := s.SkipElement(); err != nil {
					return nil, ProjStats{BytesRead: s.BytesRead()}, err
				}
				continue
			}
			nf.kids = len(pending)
			if f.node != nil || nf.subtree {
				nf.mark = sl.mark()
				nf.node = sl.node(ElementNode, tok.Name, "")
				for _, a := range tok.Attrs {
					if allAttrs || attrWanted(attrNames, a.Name) {
						add(nf.node, sl.node(AttributeNode, a.Name, s.stable(a.Value)))
					}
				}
				nf.nattr = len(pending) - nf.kids
			}
			if sink != nil && nf.keep {
				sink(*tok, nf.node)
			}
			frames = append(frames, nf)
		case TokEndElement:
			done := *f
			frames = frames[:len(frames)-1]
			states = states[:done.st0]
			parent := &frames[len(frames)-1]
			if done.node == nil {
				break
			}
			done.node.setList(arena.carve(pending[done.kids:]), done.nattr)
			pending = pending[:done.kids]
			switch {
			case done.keep || done.subtree || done.childKept:
				if parent.node != nil {
					done.node.Parent = parent.node
					pending = append(pending, done.node)
					parent.childKept = true
					st.ElementsRetained++
				}
			default:
				// A dropped shell. Every node taken after it is a shell of
				// its own subtree, dropped too, and none was handed to a
				// sink (a sink's build has nodes only inside Subtree
				// regions, where nothing is dropped).
				sl.rewind(done.mark)
			}
		case TokText:
			add(f.node, sl.node(TextNode, "", s.stable(tok.Data)))
		case TokComment:
			// Comments survive inside subtree regions and at document
			// level (where only kind tests — which force a subtree mark —
			// or whole-document serialization can observe them).
			if f.node != nil && (f.subtree || len(frames) == 1) {
				add(f.node, sl.node(CommentNode, "", s.stable(tok.Data)))
			}
		case TokPI:
			if f.node != nil && (f.subtree || len(frames) == 1) {
				add(f.node, sl.node(PINode, tok.Name, s.stable(tok.Data)))
			}
		case TokEOF:
			if doc != nil {
				doc.setList(arena.carve(pending), 0)
			}
			st.BytesRead = s.BytesRead()
			st.ElementsPruned = elementsSeen + s.ElementsSkipped() - st.ElementsRetained
			return doc, st, nil
		}
	}
}

// addState adds st to the live states from index from on, unless it is
// already there. Repeated descendant steps over same-named nesting
// (//a//a//a on nested <a>) reach one state many ways; without this a
// frame's set grows with depth instead of staying bounded by the total
// number of steps.
func addState(states []projState, from int, st projState) []projState {
	for _, have := range states[from:] {
		if have == st {
			return states
		}
	}
	return append(states, st)
}

func attrWanted(filter []string, name string) bool {
	for _, f := range filter {
		if f == "*" || f == name {
			return true
		}
	}
	return false
}

// maxSlabChunk is the largest chunk a slab takes, in nodes (20 KB).
const maxSlabChunk = 256

// slab hands out the nodes of one build from chunks of 1, 2, 4, … up to
// maxSlabChunk nodes, so a small fragment costs a node or two and a large
// document one allocation per 256 nodes. Nodes are numbered in the order
// they are taken, the document node 0. A chunk stays alive while any of its
// nodes is reachable.
type slab struct {
	chunk  []Node // the current chunk; its length is the part handed out
	chunks int    // chunks taken so far, which tells marks apart
	ord    uint32
}

// slabMark is a slab position, good only within its chunk.
type slabMark struct{ chunk, used int }

// node takes the next zeroed node and sets its kind, name, data and ordinal.
func (sl *slab) node(kind NodeKind, name, data string) *Node {
	if len(sl.chunk) == cap(sl.chunk) {
		sl.chunk = make([]Node, 0, min(max(2*cap(sl.chunk), 1), maxSlabChunk))
		sl.chunks++
	}
	sl.chunk = sl.chunk[:len(sl.chunk)+1]
	n := &sl.chunk[len(sl.chunk)-1]
	n.Kind, n.Name, n.Data = kind, name, data
	n.ord = sl.ord
	sl.ord++
	return n
}

func (sl *slab) mark() slabMark { return slabMark{sl.chunks, len(sl.chunk)} }

// rewind gives back every node taken since m, provided they all came from
// m's chunk; the caller guarantees nothing references them.
func (sl *slab) rewind(m slabMark) {
	if m.chunk == sl.chunks {
		clear(sl.chunk[m.used:])
		sl.chunk = sl.chunk[:m.used]
	}
}

// maxArenaChunk is the largest chunk a pointer arena takes (8 KB).
const maxArenaChunk = 1024

// ptrArena carves the content lists of one build from shared chunks, which
// grow from 4 pointers to maxArenaChunk.
type ptrArena struct {
	free []*Node // the current chunk's unused tail, length 0
	size int     // the current chunk's length
}

// carve returns a copy of list with cap == len, so that appending to it
// reallocates instead of writing into the next list; an empty list is nil.
func (a *ptrArena) carve(list []*Node) []*Node {
	n := len(list)
	if n == 0 {
		return nil
	}
	if n > cap(a.free) {
		size := min(max(2*a.size, 4), maxArenaChunk)
		if n >= size {
			// Too long to share a chunk: a list of its own.
			return append(make([]*Node, 0, n), list...)
		}
		a.free, a.size = make([]*Node, 0, size), size
	}
	out := append(a.free, list...)
	a.free = out[n:n]
	return out[:n:n]
}
