package xmltree

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// ladderCorpus is the streaming ladder's corpus shape at its size: 32 000
// sections, about 5.2 MB. Built once.
var ladderCorpus = sync.OnceValue(func() string { return ladderDoc(32000) })

// ladderDoc is the streaming ladder's corpus shape: a catalog of one-item
// sections, each with attributes on the section and the item, a title, and
// a filler element of prose that is <blurb> or, one time in eight, <aside>.
// It is built from a fixed seed.
func ladderDoc(sections int) string {
	rng := rand.New(rand.NewSource(20050614))
	var b strings.Builder
	b.Grow(sections * 170)
	b.WriteString("<catalog>")
	for i := 0; i < sections; i++ {
		filler := "blurb"
		if rng.Intn(8) == 0 {
			filler = "aside"
		}
		fmt.Fprintf(&b, `<section n="%d"><item n="%d" k="k%02d"><title>Item number %d</title></item>`, i, 1000+rng.Intn(9000), rng.Intn(50), i)
		fmt.Fprintf(&b, `<%s>Filler prose the query never inspects, item %d edition.</%s></section>`, filler, i, filler)
	}
	b.WriteString("</catalog>")
	return b.String()
}

// retainedPerNode parses in over a reader, as the streaming ladder's
// materialize tier does, and returns the heap the tree holds once the
// garbage is collected, in bytes per node, with the node count.
func retainedPerNode(in string) (float64, int) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	doc, err := ParseReader(strings.NewReader(in))
	if err != nil {
		panic(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	nodes := CountNodes(doc)
	runtime.KeepAlive(doc)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(nodes), nodes
}

var benchKind TokenKind

// BenchmarkScanner drains a Scanner over a reader: the layer every
// streaming tier pays before it matches or builds anything.
func BenchmarkScanner(b *testing.B) {
	in := ladderCorpus()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewScanner(strings.NewReader(in), ParseOptions{})
		for {
			tok, err := s.Next()
			if err != nil {
				b.Fatal(err)
			}
			if benchKind = tok.Kind; tok.Kind == TokEOF {
				break
			}
		}
	}
}

var benchDoc *Node

// BenchmarkParseReader builds the whole tree over a reader: the scanner
// plus what the builder copies and allocates for the nodes it keeps. B/node
// is the heap one built tree retains, per node, once the garbage is gone.
func BenchmarkParseReader(b *testing.B) {
	in := ladderCorpus()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := ParseReader(strings.NewReader(in))
		if err != nil {
			b.Fatal(err)
		}
		benchDoc = doc
	}
	b.StopTimer()
	benchDoc = nil
	perNode, _ := retainedPerNode(in)
	b.ReportMetric(perNode, "B/node")
}
