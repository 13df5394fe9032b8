// Package store is the daemon's persistent named-collection layer: XML
// collections loaded from a data directory, served as immutable
// copy-on-write-frozen snapshots so a reload can never race an in-flight
// evaluation — queries keep the snapshot they started with, and the swap to
// a new one is a single atomic pointer store.
//
// Layout: every subdirectory of the data directory is one collection, and
// every *.xml file inside it is one document. *.xml files at the top level
// form the default collection "db" (the eXist-style collection('/db')
// idiom the paper's deployments lean on). A collection's query-facing root
// is a document node holding one synthetic
//
//	<collection name="NAME"><doc name="FILE">…</doc>…</collection>
//
// element wrapping a lazy COW clone of each document element, in file-name
// order, so `/collection/doc/…` paths and `//…` descendant scans both work
// and documents stay individually addressable via fn:doc("FILE") through
// the snapshot's Resolver.
//
// Loads go through a fault-injection hook and a jittered retry policy
// (internal/faultinject): transient storage faults are retried with
// bounded, deterministic backoff; a reload that still fails leaves the
// previous snapshot serving — stale data beats no data, the degradation
// the daemon's /readyz reports rather than hides.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"lopsided/internal/faultinject"
	"lopsided/internal/xmltree"
	"lopsided/internal/xmltree/index"
)

// DefaultCollection is the name given to *.xml files at the top level of
// the data directory.
const DefaultCollection = "db"

// Doc is one loaded document inside a collection.
type Doc struct {
	// Name is the file base name without the .xml extension.
	Name string
	// Root is the document node, frozen under the COW contract: no caller
	// may mutate it or anything below it.
	Root *xmltree.Node
	// Bytes is the on-disk size of the source file.
	Bytes int64
}

// Collection is one named set of documents plus its synthetic query root.
type Collection struct {
	Name string
	Docs []Doc
	// Root is the frozen document node holding the <collection name=…>
	// element that wraps every document element; it is the context item for
	// queries against the collection.
	Root *xmltree.Node
	// Bytes totals the on-disk size of the collection's files.
	Bytes int64
}

// Snapshot is one immutable generation of the store. All fields are
// read-only after construction; evaluations hold a *Snapshot for their
// whole lifetime and never observe a reload.
type Snapshot struct {
	// Version increments on every successful (re)load.
	Version int64
	// LoadedAt is when this snapshot finished loading.
	LoadedAt time.Time
	cols     map[string]*Collection
}

// Collection looks up a collection by name; a leading "/" is ignored so
// both "db" and "/db" resolve.
func (s *Snapshot) Collection(name string) (*Collection, bool) {
	c, ok := s.cols[strings.TrimPrefix(name, "/")]
	return c, ok
}

// Names lists the snapshot's collection names, sorted.
func (s *Snapshot) Names() []string {
	out := make([]string, 0, len(s.cols))
	for name := range s.cols {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Docs reports the total number of documents across all collections.
func (s *Snapshot) Docs() int {
	n := 0
	for _, c := range s.cols {
		n += len(c.Docs)
	}
	return n
}

// Resolver returns a fn:doc resolver over this snapshot. URIs resolve as
// "name" (within the given collection, which may be "") or
// "collection/name"; the ".xml" suffix is optional. The resolver is safe
// for concurrent use and pinned to this snapshot — a reload never changes
// what an in-flight evaluation's fn:doc sees.
func (s *Snapshot) Resolver(collection string) func(uri string) (*xmltree.Node, error) {
	return func(uri string) (*xmltree.Node, error) {
		col, name := collection, strings.TrimSuffix(uri, ".xml")
		if i := strings.LastIndex(name, "/"); i >= 0 {
			col, name = strings.Trim(name[:i], "/"), name[i+1:]
		}
		c, ok := s.Collection(col)
		if !ok {
			return nil, fmt.Errorf("doc(%q): unknown collection %q", uri, col)
		}
		for i := range c.Docs {
			if c.Docs[i].Name == name {
				return c.Docs[i].Root, nil
			}
		}
		return nil, fmt.Errorf("doc(%q): no document %q in collection %q", uri, name, c.Name)
	}
}

// Options configure a Store.
type Options struct {
	// Hook, when non-nil, runs before every file read with an operation
	// tag like `load("db/books.xml")`; returning an error fails (or, for
	// transient errors, retries) that load. This is the chaos harness's
	// injection point — wire an *faultinject.Injector's Hit here.
	Hook func(op string) error
	// Retry is the backoff policy for transient load faults. The zero
	// value means 3 attempts from a 1ms base (see faultinject.Backoff);
	// set Jitter/Seed for a bounded deterministic schedule.
	Retry faultinject.Backoff
}

// Store serves immutable snapshots of a data directory.
type Store struct {
	dir  string
	opts Options
	snap atomic.Pointer[Snapshot]
	vers atomic.Int64
}

// Open loads the data directory and returns a serving store. It fails when
// the directory is missing, holds no collections, or a document does not
// parse — a daemon should refuse to start on a bad corpus rather than
// serve an empty one.
func Open(dir string, opts Options) (*Store, error) {
	st := &Store{dir: dir, opts: opts}
	if err := st.Reload(); err != nil {
		return nil, err
	}
	return st, nil
}

// Snapshot returns the current immutable snapshot.
func (st *Store) Snapshot() *Snapshot { return st.snap.Load() }

// Dir reports the data directory the store serves.
func (st *Store) Dir() string { return st.dir }

// Reload rebuilds a snapshot from the data directory and atomically swaps
// it in. On failure the previous snapshot (if any) keeps serving and the
// error is returned. Transient faults from the load hook are retried under
// the configured backoff; permanent ones fail the reload at once.
func (st *Store) Reload() error {
	snap, err := st.load()
	if err != nil {
		return err
	}
	snap.Version = st.vers.Add(1)
	st.snap.Store(snap)
	return nil
}

func (st *Store) load() (*Snapshot, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	snap := &Snapshot{cols: make(map[string]*Collection)}
	var topLevel []string
	for _, e := range entries {
		if e.IsDir() {
			col, err := st.loadCollection(e.Name(), filepath.Join(st.dir, e.Name()))
			if err != nil {
				return nil, err
			}
			if col != nil {
				snap.cols[col.Name] = col
			}
			continue
		}
		if strings.HasSuffix(e.Name(), ".xml") {
			topLevel = append(topLevel, e.Name())
		}
	}
	if len(topLevel) > 0 {
		col, err := st.buildCollection(DefaultCollection, st.dir, topLevel)
		if err != nil {
			return nil, err
		}
		snap.cols[col.Name] = col
	}
	if len(snap.cols) == 0 {
		return nil, fmt.Errorf("store: no collections under %q (want subdirectories or top-level *.xml files)", st.dir)
	}
	snap.LoadedAt = time.Now()
	return snap, nil
}

func (st *Store) loadCollection(name, dir string) (*Collection, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: collection %q: %w", name, err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".xml") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, nil // an empty subdirectory is not a collection
	}
	return st.buildCollection(name, dir, files)
}

// buildCollection parses files (already filtered to *.xml, made
// deterministic by sorting) into a frozen Collection.
func (st *Store) buildCollection(name, dir string, files []string) (*Collection, error) {
	sort.Strings(files)
	col := &Collection{Name: name}
	top := xmltree.NewElement("collection")
	top.SetAttr("name", name)
	for _, f := range files {
		path := filepath.Join(dir, f)
		op := fmt.Sprintf("load(%q)", name+"/"+f)
		// Parse straight off the file through the streaming reader: the raw
		// bytes never exist as one in-memory string next to the tree. A
		// retried attempt re-opens the file, so a transient fault mid-parse
		// starts over from a clean scanner.
		var doc *xmltree.Node
		var bytes int64
		err := faultinject.Retry(st.opts.Retry, func() error {
			if st.opts.Hook != nil {
				if err := st.opts.Hook(op); err != nil {
					return err
				}
			}
			fh, e := os.Open(path)
			if e != nil {
				return e
			}
			defer fh.Close()
			if fi, e := fh.Stat(); e == nil {
				bytes = fi.Size()
			}
			doc, e = xmltree.ParseReader(fh)
			if e != nil {
				return fmt.Errorf("parse: %w", e)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w", op, err)
		}
		// Freeze the parsed document so it can anchor a structural/value
		// index: fn:doc evaluations share one lazily-built index per
		// document per snapshot, across requests and tenants.
		xmltree.Freeze(doc)
		docName := strings.TrimSuffix(f, ".xml")
		col.Docs = append(col.Docs, Doc{Name: docName, Root: doc, Bytes: bytes})
		col.Bytes += bytes
		// Wrap a lazy COW clone of the document element: the clone
		// freezes the parsed tree (so fn:doc serves frozen documents) and
		// shares its storage with the collection root instead of copying.
		wrap := xmltree.NewElement("doc")
		wrap.SetAttr("name", docName)
		if de := doc.DocumentElement(); de != nil {
			wrap.AppendChild(de.Clone())
		}
		top.AppendChild(wrap)
	}
	// The root is a document node above the collection element, so `/` of
	// any node in it is that document and `/collection/…` selects the
	// element. Freeze it: concurrent evaluations read it safely, any
	// constructor that copies from it clones lazily, and the root becomes a
	// valid index anchor — the first `//name` or `[@attr = 'v']` probe
	// against the collection builds its structural/value index once, and
	// every later request (any tenant) shares it. A reload builds a fresh
	// snapshot with fresh roots, so old indexes are dropped atomically with
	// the trees they describe.
	root := xmltree.NewDocument()
	root.AppendChild(top)
	xmltree.Freeze(root)
	col.Root = root
	return col, nil
}

// Index returns the collection's structural/value index, building the
// DocIndex shell on first use (sections build lazily on first probe).
func (c *Collection) Index() (*index.DocIndex, bool) {
	return index.For(c.Root)
}

// IndexInfo describes one collection's index state for /stats.
type IndexInfo struct {
	Collection string `json:"collection"`
	// Built reports whether the structural section has been constructed,
	// AttrsBuilt whether some attribute name's value section has (they
	// build lazily on first probe, the value sections one name at a time).
	Built      bool `json:"built"`
	AttrsBuilt bool `json:"attrs_built"`
	Elements   int  `json:"elements,omitempty"`
	Names      int  `json:"names,omitempty"`
	// AttrKeys sums the distinct values over the attribute names probed
	// so far.
	AttrKeys int `json:"attr_keys,omitempty"`
	// Content maps each child name whose content section has been built
	// to its distinct values; absent until the first [child = key] probe.
	Content map[string]int `json:"content,omitempty"`
}

// IndexState reports, per collection, whether (and how much of) the
// snapshot's index state has been built, without forcing any builds. Sorted
// by collection name.
func (s *Snapshot) IndexState() []IndexInfo {
	out := make([]IndexInfo, 0, len(s.cols))
	for _, name := range s.Names() {
		c := s.cols[name]
		info := IndexInfo{Collection: name}
		if ix, ok := index.Peek(c.Root); ok {
			st := ix.Info()
			info.Built, info.AttrsBuilt = st.Built, st.Attrs != nil
			info.Elements, info.Names, info.Content = st.Elements, st.Names, st.Content
			for _, n := range st.Attrs {
				info.AttrKeys += n
			}
		}
		out = append(out, info)
	}
	return out
}
