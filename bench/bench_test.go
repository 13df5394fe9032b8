package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"lopsided/xq"
)

// TestGeneratorsAreDeterministic: one seed gives the same bytes and the
// same expected answers every time; another seed gives other literals but
// the same amount of data.
func TestGeneratorsAreDeterministic(t *testing.T) {
	type inputs struct {
		cat, lib  map[string]string
		hot       map[string][]request
		xforms    []request
		cold      []request
		stream    *streamCorpus
		docInputs []string
	}
	build := func(seed int64) inputs {
		rng := rand.New(rand.NewSource(seed))
		cat := newCatCorpus(rng)
		lib := newLibCorpus(rng)
		in := inputs{cat: cat.files(), lib: lib.files(), hot: hotRequests(rng, cat), xforms: transformRequests(rng, lib)}
		for i := 0; i < 40; i++ {
			in.cold = append(in.cold, coldRequest(rng, lib, "u"))
		}
		in.stream = newStreamCorpus(rand.New(rand.NewSource(seed)), 300)
		docs, err := docInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			in.docInputs = append(in.docInputs, d.wantDoc)
		}
		return in
	}
	a, again, b := build(11), build(11), build(12)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed generated different inputs")
	}
	if reflect.DeepEqual(a.cat, b.cat) || reflect.DeepEqual(a.hot, b.hot) || reflect.DeepEqual(a.cold, b.cold) ||
		a.stream.xml == b.stream.xml || reflect.DeepEqual(a.docInputs, b.docInputs) {
		t.Fatal("two seeds generated the same inputs")
	}
	for name, text := range a.cat {
		if len(text) != len(b.cat[name]) {
			t.Errorf("cat/%s: %d bytes under one seed, %d under another", name, len(text), len(b.cat[name]))
		}
	}
	if len(a.stream.xml) != len(b.stream.xml) {
		t.Errorf("stream corpus: %d bytes under one seed, %d under another", len(a.stream.xml), len(b.stream.xml))
	}
	if n := len(a.hot["point"]) + len(a.hot["scan"]) + len(a.hot["build"]); n > 64 {
		t.Errorf("serve_hot has %d plan texts, more than half a tenant's plan cache", n)
	}
}

// TestNamesMatchBenchmarkJSON keeps the registry in metrics.go and the
// contract file at the repository root in step.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", names, workloadNames)
	}
	seen := map[string]bool{}
	for _, pair := range []struct {
		what string
		file []metric
		defs []metricDef
	}{{"end_to_end", file.EndToEnd, endToEnd}, {"per_layer", file.PerLayer, perLayer}} {
		var want []metric
		for _, d := range pair.defs {
			want = append(want, metric{d.name, d.unit})
			if !valid.MatchString(d.name) {
				t.Errorf("metric name %q is not made of letters, digits, _ . -", d.name)
			}
			if seen[d.name] {
				t.Errorf("metric name %q is used twice", d.name)
			}
			seen[d.name] = true
		}
		if !reflect.DeepEqual(pair.file, want) {
			t.Errorf("%s: BENCHMARK.json and metrics.go differ:\n file %v\n code %v", pair.what, pair.file, want)
		}
	}
	for _, w := range workloadNames {
		if !valid.MatchString(w) {
			t.Errorf("workload name %q is not made of letters, digits, _ . -", w)
		}
	}
}

// TestLadderQueriesResolveToTheirTiers: the three stream_ladder queries
// must land on the tier each is there to exercise.
func TestLadderQueriesResolveToTheirTiers(t *testing.T) {
	c := newStreamCorpus(rand.New(rand.NewSource(3)), 50)
	for _, sq := range c.queries {
		q, err := xq.CompileStream(sq.src)
		if err != nil {
			t.Fatalf("%s: %v", sq.src, err)
		}
		if got := q.Mode().String(); got != sq.tier {
			t.Errorf("%s resolves to %s, want %s", sq.src, got, sq.tier)
		}
	}
}

// TestSmoke runs every workload through a 0.3 s window, untraced and
// traced, and requires every answer to match the generator's.
func TestSmoke(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir() // shared, so xqd is linked once
	for _, trace := range []bool{false, true} {
		for _, w := range workloadNames {
			e := &env{root: root, out: out, seed: 5, seconds: 0.3, trace: trace, smoke: true}
			o, err := runWorkload(e, w)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w, trace, err)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Errorf("%s (trace %v): attempted %d, failed %d: %s", w, trace, o.attempted, o.failed, o.firstFailure)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if _, err := o.values.complete(defs); err != nil {
				t.Errorf("%s (trace %v): %v", w, trace, err)
			}
			if !trace {
				for _, d := range endToEnd {
					if o.values[d.name] <= 0 {
						t.Errorf("%s: %s = %v, want a positive value", w, d.name, o.values[d.name])
					}
				}
			}
		}
	}
}
