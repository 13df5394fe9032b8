package store

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lopsided/internal/faultinject"
	"lopsided/xq"
)

// writeCorpus lays out a two-collection data directory plus a top-level
// default-collection file.
func writeCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	mustWrite := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("library/books.xml", `<lib><book><title>Lopsided</title></book><book><title>Little</title></book></lib>`)
	mustWrite("library/journals.xml", `<lib><journal><title>SIGMOD</title></journal></lib>`)
	mustWrite("awb/model.xml", `<awb><system name="crm"/><system name="erp"/></awb>`)
	mustWrite("top.xml", `<top><x>1</x></top>`)
	return dir
}

func TestOpenLoadsCollections(t *testing.T) {
	st, err := Open(writeCorpus(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	want := []string{"awb", "db", "library"}
	got := snap.Names()
	if len(got) != len(want) {
		t.Fatalf("collections = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("collections = %v, want %v", got, want)
		}
	}
	if snap.Docs() != 4 {
		t.Fatalf("docs = %d, want 4", snap.Docs())
	}
	lib, ok := snap.Collection("/library")
	if !ok {
		t.Fatal("leading-slash lookup failed")
	}
	if !lib.Root.IndexCacheable() {
		t.Fatal("collection root is not COW-frozen")
	}
	// The synthetic root is queryable: titles across both documents.
	q := xq.MustCompile(`for $t in /collection//title return string($t)`)
	out, err := q.EvalString(context.Background(), lib.Root)
	if err != nil {
		t.Fatal(err)
	}
	if out != "Lopsided Little SIGMOD" {
		t.Fatalf("collection query = %q", out)
	}
}

func TestResolverPinsSnapshot(t *testing.T) {
	st, err := Open(writeCorpus(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	resolve := snap.Resolver("library")
	for _, uri := range []string{"books", "books.xml", "library/books", "/library/books.xml"} {
		doc, err := resolve(uri)
		if err != nil {
			t.Fatalf("resolve(%q): %v", uri, err)
		}
		if doc.DocumentElement().Name != "lib" {
			t.Fatalf("resolve(%q) got %q", uri, doc.DocumentElement().Name)
		}
	}
	if _, err := resolve("nope"); err == nil {
		t.Fatal("unknown doc resolved")
	}
	if _, err := resolve("nope/books"); err == nil {
		t.Fatal("unknown collection resolved")
	}
	// Cross-collection reference from the default collection.
	if _, err := snap.Resolver("")("awb/model"); err != nil {
		t.Fatalf("cross-collection resolve: %v", err)
	}
}

func TestReloadSwapsAtomically(t *testing.T) {
	dir := writeCorpus(t)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	old := st.Snapshot()

	// Concurrent readers evaluate against their pinned snapshot while
	// reloads swap underneath them.
	q := xq.MustCompile(`count(/collection//title)`)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Snapshot()
				col, _ := snap.Collection("library")
				out, err := q.EvalString(context.Background(), col.Root)
				if err != nil {
					t.Errorf("eval during reload: %v", err)
					return
				}
				if out != "3" && out != "4" {
					t.Errorf("eval during reload saw a torn snapshot: %q", out)
					return
				}
			}
		}()
	}
	// Mutate the corpus and reload several times.
	for i := 0; i < 5; i++ {
		extra := filepath.Join(dir, "library", "extra.xml")
		if i%2 == 0 {
			if err := os.WriteFile(extra, []byte(`<lib><book><title>Extra</title></book></lib>`), 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			os.Remove(extra)
		}
		if err := st.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if st.Snapshot().Version <= old.Version {
		t.Fatalf("version did not advance: %d -> %d", old.Version, st.Snapshot().Version)
	}
	// The old snapshot still serves its original contents.
	col, _ := old.Collection("library")
	out, err := q.EvalString(context.Background(), col.Root)
	if err != nil || out != "3" {
		t.Fatalf("old snapshot changed after reloads: %q err=%v", out, err)
	}
}

func TestReloadFailureKeepsServing(t *testing.T) {
	dir := writeCorpus(t)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := st.Snapshot()
	// Corrupt a document so the next reload fails.
	bad := filepath.Join(dir, "awb", "model.xml")
	if err := os.WriteFile(bad, []byte(`<awb><unclosed>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Reload(); err == nil {
		t.Fatal("reload of a corrupt corpus succeeded")
	}
	if st.Snapshot() != before {
		t.Fatal("failed reload replaced the serving snapshot")
	}
}

func TestLoadRetriesTransientFaults(t *testing.T) {
	dir := writeCorpus(t)
	inj := faultinject.New(7, 0.6).Transient(1.0) // every fault transient
	var slept []time.Duration
	st, err := Open(dir, Options{
		Hook: inj.Hit,
		Retry: faultinject.Backoff{
			Attempts: 8, Base: time.Millisecond, Max: 4 * time.Millisecond,
			Jitter: 0.5, Seed: 7,
			Sleep: func(d time.Duration) { slept = append(slept, d) },
		},
	})
	if err != nil {
		t.Fatalf("open with transient faults failed: %v (faults=%v)", err, inj.Faults())
	}
	if inj.FailureCount() == 0 {
		t.Fatal("injector never fired; the retry path went untested")
	}
	if len(slept) == 0 {
		t.Fatal("transient faults were never retried")
	}
	for _, d := range slept {
		if d > 4*time.Millisecond {
			t.Fatalf("retry slept %v, past the configured bound", d)
		}
	}
	if st.Snapshot().Docs() != 4 {
		t.Fatalf("docs = %d, want 4", st.Snapshot().Docs())
	}
}

func TestOpenFailsPermanentFault(t *testing.T) {
	inj := faultinject.New(3, 1.0) // all faults, all permanent
	if _, err := Open(writeCorpus(t), Options{Hook: inj.Hit}); err == nil {
		t.Fatal("open with permanent faults succeeded")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("open of an empty directory succeeded")
	}
}

// TestSnapshotIndexLifecycle covers the index half of the reload contract:
// collection roots are index-cacheable, the index state is reported per
// collection, queries through the engine actually hit the index, and a
// reload's fresh snapshot starts with no built indexes (the old ones are
// dropped atomically with the trees they describe).
func TestSnapshotIndexLifecycle(t *testing.T) {
	st, err := Open(writeCorpus(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()

	// Nothing is built until a probe happens.
	for _, info := range snap.IndexState() {
		if info.Built || info.AttrsBuilt {
			t.Fatalf("index built before any probe: %+v", info)
		}
	}

	// An indexed query against the collection root must be served from the
	// index (the root is frozen at load time).
	lib, _ := snap.Collection("library")
	q, err := xq.Compile(`count(//title)`)
	if err != nil {
		t.Fatal(err)
	}
	var stats xq.EvalStats
	out, err := q.EvalString(context.Background(), lib.Root, xq.WithStats(&stats))
	if err != nil || out != "3" {
		t.Fatalf("eval: %q %v", out, err)
	}
	if stats.IndexHits == 0 {
		t.Fatalf("collection query did not hit the index: %+v", stats)
	}

	// The built structural section now shows up in the per-collection state.
	var libInfo *IndexInfo
	for _, info := range snap.IndexState() {
		if info.Collection == "library" {
			tmp := info
			libInfo = &tmp
		}
	}
	if libInfo == nil || !libInfo.Built || libInfo.Elements == 0 {
		t.Fatalf("library index state after probe: %+v", libInfo)
	}
	// No content section until a [child = key] probe, and /stats then
	// omits the field; the probe builds the one child name it keys.
	if b, _ := json.Marshal(libInfo); libInfo.Content != nil || strings.Contains(string(b), "content") {
		t.Fatalf("content section before a content probe: %s", b)
	}
	if out, err := xq.MustCompile(`count(//book[title = 'Little'])`).EvalString(context.Background(), lib.Root); err != nil || out != "1" {
		t.Fatalf("content probe: %q %v", out, err)
	}
	for _, info := range snap.IndexState() {
		if info.Collection == "library" && (len(info.Content) != 1 || info.Content["title"] != 3) {
			t.Fatalf("library content sections after a title probe: %+v", info.Content)
		}
	}

	// Collection.Index exposes the same memoized index.
	ix, ok := lib.Index()
	if !ok || !ix.Info().Built {
		t.Fatalf("Collection.Index: ok=%v", ok)
	}

	// fn:doc documents are frozen and indexable too.
	for _, d := range lib.Docs {
		if !d.Root.IndexCacheable() {
			t.Fatalf("document %q root is not index-cacheable", d.Name)
		}
	}

	// Reload: the new snapshot's roots are fresh trees with no index built;
	// the old snapshot (and its indexes) die together.
	if err := st.Reload(); err != nil {
		t.Fatal(err)
	}
	snap2 := st.Snapshot()
	if snap2 == snap {
		t.Fatal("reload did not swap the snapshot")
	}
	for _, info := range snap2.IndexState() {
		if info.Built || info.AttrsBuilt {
			t.Fatalf("fresh snapshot inherited a built index: %+v", info)
		}
	}
	lib2, _ := snap2.Collection("library")
	out, err = q.EvalString(context.Background(), lib2.Root, xq.WithStats(&stats))
	if err != nil || out != "3" {
		t.Fatalf("post-reload eval: %q %v", out, err)
	}
	if stats.IndexBuilds == 0 {
		t.Fatalf("post-reload eval did not rebuild the index: %+v", stats)
	}
}
