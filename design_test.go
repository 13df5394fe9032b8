package lopsided_test

import (
	"encoding/json"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// designSection is one numbered section of DESIGN.md: its text and the
// leads a reference may quote — each bold span that opens a paragraph or a
// table cell, and each ### heading.
type designSection struct {
	text  string
	leads []string
}

var (
	sectionRe  = regexp.MustCompile(`(?m)^## (\d+)\. `)
	leadRe     = regexp.MustCompile(`(?m)^(?:\*\*([^*\n]+)\*\*|### (.+)$|\| \*\*([^*\n]+)\*\*)`)
	testNameRe = regexp.MustCompile(`(?:\b(\w+)\.)?\b((?:Test|Benchmark|Fuzz)[A-Z_]\w*)(\*?)`)
	testDeclRe = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	codeSpanRe = regexp.MustCompile("`([^`\n]+)`")
	filePathRe = regexp.MustCompile(`^[\w.\-]+(?:/[\w.\-]+)*\.(?:go|md|json|txt|golden|yml|xml)$`)
	pkgPathRe  = regexp.MustCompile(`^(?:internal|cmd|examples)(?:/[\w\-]+)+$`)
	rowTokRe   = regexp.MustCompile(`^[a-z]+\.[a-z0-9_.{},*]*_[a-z0-9_.{},*]*$`)
	// designRefRe matches "DESIGN §N", "DESIGN.md §N" and
	// "[DESIGN.md](DESIGN.md) §N", also across a line break, further
	// sections joined by commas or "and", and an optional quoted lead after
	// the last one.
	designRefRe  = regexp.MustCompile(`DESIGN(?:\.md)?(?:\]\(DESIGN\.md\))?,?\s+§(\d+)((?:(?:,| and)\s+§\d+)*)(?:,?\s+"([^"\n]+)")?`)
	innerRefRe   = regexp.MustCompile(`§(\d+)(?: "([^"\n]+)")?`)
	sectionNumRe = regexp.MustCompile(`§(\d+)`)
)

func parseDesign(doc string) map[int]*designSection {
	sections := map[int]*designSection{}
	locs := sectionRe.FindAllStringSubmatchIndex(doc, -1)
	for i, loc := range locs {
		num, _ := strconv.Atoi(doc[loc[2]:loc[3]])
		end := len(doc)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		s := &designSection{text: doc[loc[0]:end]}
		for _, m := range leadRe.FindAllStringSubmatch(s.text, -1) {
			s.leads = append(s.leads, strings.TrimSuffix(m[1]+m[2]+m[3], "."))
		}
		sections[num] = s
	}
	return sections
}

// hasLead reports whether lead opens one of the section's leads.
func (s *designSection) hasLead(lead string) bool {
	return slices.ContainsFunc(s.leads, func(l string) bool { return strings.HasPrefix(l, lead) })
}

// repoFiles lists every regular file of the repository, relative to its
// root, leaving out .git.
func repoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			files = append(files, filepath.ToSlash(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// expandRow expands a cited row token's {a,b} alternatives; a * in what
// remains matches as in path.Match.
func expandRow(tok string) []string {
	open := strings.IndexByte(tok, '{')
	closing := strings.IndexByte(tok, '}')
	if open < 0 || closing < open {
		return []string{tok}
	}
	var out []string
	for _, alt := range strings.Split(tok[open+1:closing], ",") {
		out = append(out, expandRow(tok[:open]+alt+tok[closing+1:])...)
	}
	return out
}

// TestDesignDocResolves keeps DESIGN.md a spec of the tree as it is: every
// test, benchmark, fuzz target, file and ledger row it cites exists, every
// per-layer row of BENCHMARK.json is owned by exactly one section's
// **Rows.** line, every package is named in §2's inventory, and every
// "DESIGN §N" reference elsewhere in the repository (CHANGES.md, a history,
// excepted) names a section — and a lead, when it quotes one — that exists.
func TestDesignDocResolves(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	sections := parseDesign(doc)
	files := repoFiles(t)

	// Tests, benchmarks and fuzz targets, by name, with the packages
	// (directory base names) that declare them.
	declared := map[string][]string{}
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(filepath.Dir(f))
		for _, m := range testDeclRe.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = append(declared[m[1]], pkg)
		}
	}
	for _, m := range testNameRe.FindAllStringSubmatch(doc, -1) {
		qual, name, prefix := m[1], m[2], m[3] == "*"
		var pkgs []string
		for decl, in := range declared {
			if decl == name || prefix && strings.HasPrefix(decl, name) {
				pkgs = append(pkgs, in...)
			}
		}
		switch {
		case len(pkgs) == 0:
			t.Errorf("DESIGN.md cites %s%s, which no test file declares", name, m[3])
		case qual != "" && strings.ToLower(qual[:1]) == qual[:1] && !slices.Contains(pkgs, qual):
			t.Errorf("DESIGN.md cites %s.%s, but %s is declared in %v", qual, name, name, pkgs)
		}
	}

	// Files and package directories cited in code spans.
	dirs := map[string]bool{}
	for _, f := range files {
		for d := filepath.Dir(f); d != "."; d = filepath.Dir(d) {
			dirs[filepath.ToSlash(d)] = true
		}
	}
	for _, m := range codeSpanRe.FindAllStringSubmatch(doc, -1) {
		tok := m[1]
		switch {
		case filePathRe.MatchString(tok):
			if !slices.ContainsFunc(files, func(f string) bool { return f == tok || strings.HasSuffix(f, "/"+tok) }) {
				t.Errorf("DESIGN.md cites file %s, which does not exist", tok)
			}
		case pkgPathRe.MatchString(tok):
			if !dirs[tok] {
				t.Errorf("DESIGN.md cites directory %s, which does not exist", tok)
			}
		}
	}

	// Ledger rows: every cited row exists; every per-layer row has one owner.
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	raw, err = os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var rows []string
	prefixes := map[string]bool{}
	for _, r := range bench.PerLayer {
		rows = append(rows, r.Name)
		prefixes[r.Name[:strings.IndexByte(r.Name, '.')]] = true
	}
	matchesRow := func(tok string) bool {
		return slices.ContainsFunc(rows, func(r string) bool {
			ok, _ := path.Match(tok, r)
			return ok
		})
	}
	for _, m := range codeSpanRe.FindAllStringSubmatch(doc, -1) {
		tok := m[1]
		if !rowTokRe.MatchString(tok) || !prefixes[tok[:strings.IndexByte(tok, '.')]] {
			continue
		}
		for _, row := range expandRow(tok) {
			if !matchesRow(row) {
				t.Errorf("DESIGN.md cites ledger row %s, which BENCHMARK.json does not declare", row)
			}
		}
	}
	owner := map[string][]int{}
	for num, s := range sections {
		for _, para := range strings.Split(s.text, "\n\n") {
			body, ok := strings.CutPrefix(strings.TrimSpace(para), "**Rows.**")
			if !ok {
				continue
			}
			for _, m := range codeSpanRe.FindAllStringSubmatch(body, -1) {
				if !slices.Contains(rows, m[1]) {
					t.Errorf("§%d's Rows line names %s, which is not a BENCHMARK.json per-layer row", num, m[1])
					continue
				}
				owner[m[1]] = append(owner[m[1]], num)
			}
		}
	}
	for _, r := range rows {
		if n := len(owner[r]); n != 1 {
			t.Errorf("per-layer row %s is on %d Rows lines (sections %v); want exactly one", r, n, owner[r])
		}
	}

	// Every package is in §2's inventory; the root package by its name.
	inventory := ""
	if s := sections[2]; s != nil {
		inventory = s.text
	}
	pkgs := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, ".go") && !strings.HasSuffix(f, "_test.go") && !strings.Contains(f, "testdata/") {
			pkgs[filepath.ToSlash(filepath.Dir(f))] = true
		}
	}
	for p := range pkgs {
		name := p
		if p == "." {
			name = "lopsided"
		}
		if !strings.Contains(inventory, "`"+name+"`") {
			t.Errorf("package %s is not named in DESIGN.md §2", name)
		}
	}

	// References into DESIGN.md resolve: from itself, and from every other
	// document, Go file and workflow but the history.
	check := func(where string, num int, lead string) {
		s := sections[num]
		switch {
		case s == nil:
			t.Errorf("%s refers to DESIGN §%d, which does not exist", where, num)
		case lead != "" && !s.hasLead(lead):
			t.Errorf("%s refers to DESIGN §%d %q, which §%d has no lead for", where, num, lead, num)
		}
	}
	for _, m := range innerRefRe.FindAllStringSubmatch(doc, -1) {
		num, _ := strconv.Atoi(m[1])
		check("DESIGN.md", num, m[2])
	}
	for _, f := range files {
		if f == "DESIGN.md" || f == "CHANGES.md" || !slices.Contains([]string{".md", ".go", ".yml"}, path.Ext(f)) {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designRefRe.FindAllStringSubmatch(string(src), -1) {
			nums := []string{m[1]}
			for _, more := range sectionNumRe.FindAllStringSubmatch(m[2], -1) {
				nums = append(nums, more[1])
			}
			for i, n := range nums {
				num, _ := strconv.Atoi(n)
				lead := ""
				if i == len(nums)-1 {
					lead = m[3]
				}
				check(f, num, lead)
			}
		}
	}
}
