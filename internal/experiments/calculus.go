package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"lopsided/internal/awb/calculus"
	"lopsided/internal/textkit"
	"lopsided/internal/workload"
	"lopsided/internal/xmltree"
	"lopsided/xq"
)

func init() {
	register("E6", "Query calculus: native vs via-XQuery", runE6)
}

// omissionsQuery is the Omissions-window style query: documents missing
// version info — "a document without any version information appears, with
// a suitable flag, in the Omissions folder".
const omissionsQueryXML = `
<query>
  <start type="Document"/>
  <filter-property name="version"/>
  <sort by="label"/>
</query>`

// reachQuery is the paper's canonical traversal.
const reachQueryXML = `
<query>
  <start type="User"/>
  <follow relation="likes"/>
  <follow relation="uses" target-type="Program"/>
  <distinct/>
  <sort by="label"/>
</query>`

func runE6() (Report, error) {
	sizes := []struct {
		name string
		cfg  workload.Config
	}{
		{"tiny", workload.Config{Seed: 1}},
		{"small", workload.Config{Seed: 2, Users: 30, Systems: 6, Servers: 8, Programs: 15, Docs: 12}},
		{"medium", workload.Config{Seed: 3, Users: 100, Systems: 12, Servers: 15, Programs: 40, Docs: 30}},
	}
	queries := map[string]string{
		"omissions": omissionsQueryXML,
		"reach":     reachQueryXML,
	}
	var rows [][]string
	var keyed, walked []float64 // warm slowdown over native, one per row
	for _, s := range sizes {
		model := workload.BuildITModel(s.cfg)
		stats := model.Stats()
		doc := xmltree.Freeze(model.ExportXML()) // frozen: the keyed lookups are probes
		for qname, qsrc := range queries {
			q, err := calculus.ParseXML(qsrc)
			if err != nil {
				return Report{}, fmt.Errorf("%s query does not parse: %w", qname, err)
			}
			nativeOut, err := q.EvalNative(model)
			if err != nil {
				return Report{}, fmt.Errorf("%s/%s native evaluation: %w", s.name, qname, err)
			}
			compiled, err := q.Compile()
			if err != nil {
				return Report{}, fmt.Errorf("%s query does not compile to XQuery: %w", qname, err)
			}
			xqOut, err := compiled.Run(doc)
			if err != nil {
				return Report{}, fmt.Errorf("%s/%s compiled run: %w", s.name, qname, err)
			}
			if !reflect.DeepEqual(calculus.IDs(nativeOut), xqOut) && !(len(nativeOut) == 0 && len(xqOut) == 0) {
				return Report{}, fmt.Errorf("native/XQuery disagreement on %s/%s", s.name, qname)
			}
			// The same query planned without access paths: every keyed lookup
			// is a scan, which is what an engine without indexes (as Galax
			// was) pays — the paper's magnitude.
			walk, err := q.CompileWith(xq.WithAccessPaths(false))
			if err != nil {
				return Report{}, fmt.Errorf("%s query does not compile to XQuery: %w", qname, err)
			}
			walkOut, err := walk.Run(doc)
			if err != nil {
				return Report{}, fmt.Errorf("%s/%s walk-plan run: %w", s.name, qname, err)
			}
			if !reflect.DeepEqual(walkOut, xqOut) {
				return Report{}, fmt.Errorf("keyed/walk plan disagreement on %s/%s", s.name, qname)
			}
			runs := 7
			if stats.Nodes > 100 {
				runs = 3
			}
			nT := medianTime(runs, func() { _, _ = q.EvalNative(model) })
			// The warm path: compiled query over an already-exported (and,
			// after the run above, already-indexed) doc — what caching
			// could have bought the paper's team.
			warmT := medianTime(runs, func() { _, _ = compiled.Run(doc) })
			walkT := medianTime(runs, func() { _, _ = walk.Run(doc) })
			// The cold path the UI would actually pay: export + compile +
			// evaluate per query — "preposterously inefficient".
			coldT := medianTime(runs, func() { _, _ = q.EvalXQuery(model) })
			rows = append(rows, []string{
				fmt.Sprintf("%s (%dn/%dr)", s.name, stats.Nodes, stats.Relations),
				qname, fmt.Sprintf("%d", len(nativeOut)),
				fmtDur(nT), fmtDur(warmT), fmtDur(walkT), fmtDur(coldT),
				textkit.Ratio(float64(warmT), float64(nT)),
				textkit.Ratio(float64(walkT), float64(nT)),
				textkit.Ratio(float64(coldT), float64(nT)),
			})
			keyed = append(keyed, float64(warmT)/float64(nT))
			walked = append(walked, float64(walkT)/float64(nT))
		}
	}
	return Report{
		ID:    "E6",
		Title: "Calculus: native vs XQuery (C3, runtime half)",
		Paper: `"Calling XQuery from Java to evaluate queries was preposterously inefficient, and would have made the workbench unusably slow."`,
		Text: textkit.Table(
			[]string{"model", "query", "hits", "native", "xq warm", "xq warm (walk plan)", "xq cold", "warm/native", "walk/native", "cold/native"},
			rows),
		Verdict: fmt.Sprintf("with every keyed lookup a scan, as in an engine without indexes, the warm XQuery path is %.0f-%.0fx slower than the in-memory evaluator — the paper's \"preposterously inefficient\"; served from the attribute index it is still %.0f-%.0fx, and the realistic cold path (export + compile + index + evaluate) is worse — unusable for an always-visible Omissions window either way",
			slices.Min(walked), slices.Max(walked), slices.Min(keyed), slices.Max(keyed)),
	}, nil
}

// CompiledSourcePreview returns the generated XQuery for documentation.
// The source query is a package constant, so a parse failure is a bug in
// this package; it is reported in the preview text rather than panicking.
func CompiledSourcePreview() string {
	q, err := calculus.ParseXML(reachQueryXML)
	if err != nil {
		return "error: " + err.Error()
	}
	src := q.CompileXQuery()
	lines := strings.Split(src, "\n")
	if len(lines) > 30 {
		lines = lines[:30]
	}
	return strings.Join(lines, "\n")
}
