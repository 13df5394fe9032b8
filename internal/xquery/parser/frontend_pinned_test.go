package parser_test

// The front end's behaviour, pinned from outside the package before the lexer
// and parser were rewritten (byte switch, offset positions, operator table):
// for every source in the corpus, a hash of what Parse/ParseUpdate return —
// the printed AST of every prolog declaration, body and statement, the
// (node type, line, col) of every node, or the exact error string and code —
// and, for the hand-written sources, of the full token stream. The golden was
// captured at the pre-rewrite commit; `UPDATE_GOLDEN=1 go test -run
// TestFrontendPinned ./internal/xquery/parser` rewrites it, which a new
// string literal in parser_test.go or lexer_test.go makes necessary (it adds
// lines; a changed line is a changed behaviour).

import (
	"crypto/sha256"
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lopsided/internal/difftest"
	"lopsided/internal/docgen/xqgen"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/lexer"
	"lopsided/internal/xquery/parser"
)

const frontendGolden = "testdata/frontend_pinned.golden"

// pinnedCase is one corpus entry: a label that is stable across runs, the
// source, and whether it is parsed as an update program.
type pinnedCase struct {
	label  string
	src    string
	update bool
}

// handWritten returns every string literal of the two front-end test files,
// deduplicated in order of first appearance. Not every literal is a query
// (some are failure messages); what the front end says about those is
// pinned all the same.
func handWritten(t *testing.T) []string {
	t.Helper()
	var out []string
	seen := map[string]bool{}
	for _, file := range []string{"parser_test.go", "../lexer/lexer_test.go"} {
		f, err := goparser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		goast.Inspect(f, func(n goast.Node) bool {
			if _, isImport := n.(*goast.ImportSpec); isImport {
				return false
			}
			if lit, ok := n.(*goast.BasicLit); ok && lit.Kind == token.STRING {
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				if !seen[s] {
					seen[s] = true
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}

// srcID labels a hand-written source by its content, so that adding a literal
// to a test file adds lines to the golden and changes none.
func srcID(src string) string {
	sum := sha256.Sum256([]byte(src))
	return fmt.Sprintf("%x", sum[:4])
}

func pinnedCorpus(t *testing.T) (cases []pinnedCase, hand []string) {
	t.Helper()
	for seed := int64(1); seed <= 3000; seed++ {
		cases = append(cases, pinnedCase{label: fmt.Sprintf("gen/%d", seed), src: difftest.Generate(seed).Src})
	}
	for seed := int64(1); seed <= 1000; seed++ {
		cases = append(cases, pinnedCase{label: fmt.Sprintf("genupd/%d", seed), src: difftest.GenerateUpdate(seed).Src, update: true})
	}
	for i, src := range xqgen.PhaseSources() {
		cases = append(cases, pinnedCase{label: fmt.Sprintf("xqgen/phase%d", i+1), src: src})
	}
	cases = append(cases, pinnedCase{label: "xqgen/update", src: xqgen.UpdateSource(), update: true})
	hand = handWritten(t)
	for _, src := range hand {
		cases = append(cases,
			pinnedCase{label: "hand/" + srcID(src), src: src},
			pinnedCase{label: "handupd/" + srcID(src), src: src, update: true})
	}
	// Error positions and messages: every byte-prefix of every valid
	// hand-written program and of the 25 shortest valid generated queries
	// and updates of at least 24 bytes (the shortest outright are one to
	// three bytes long and truncate to nothing of interest), so each
	// truncation point of each construct is pinned.
	for _, family := range []struct {
		prefix    string
		minLen, n int
	}{{"gen/", 24, 25}, {"genupd/", 24, 25}, {"hand/", 1, len(hand)}} {
		var valid []pinnedCase
		for _, c := range cases {
			if strings.HasPrefix(c.label, family.prefix) && len(c.src) >= family.minLen && parses(c) {
				valid = append(valid, c)
			}
		}
		sort.SliceStable(valid, func(i, j int) bool { return len(valid[i].src) < len(valid[j].src) })
		if len(valid) > family.n {
			valid = valid[:family.n]
		}
		for _, c := range valid {
			for n := 0; n < len(c.src); n++ {
				cases = append(cases, pinnedCase{label: fmt.Sprintf("prefix/%s/%d", c.label, n), src: c.src[:n], update: c.update})
			}
		}
	}
	return cases, hand
}

func parses(c pinnedCase) bool {
	_, err := parse(c)
	return err == nil
}

func parse(c pinnedCase) (*ast.Module, error) {
	if c.update {
		return parser.ParseUpdate(c.src)
	}
	return parser.Parse(c.src)
}

// describe renders everything pinned about one case.
func describe(c pinnedCase) string {
	mod, err := parse(c)
	var b strings.Builder
	if err != nil {
		code := ""
		if le, ok := err.(*lexer.Error); ok {
			code = le.Code
		}
		fmt.Fprintf(&b, "error %q code %q\n", err.Error(), code)
		return b.String()
	}
	var prefixes []string
	for p := range mod.Namespaces {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	for _, p := range prefixes {
		fmt.Fprintf(&b, "namespace %q=%q\n", p, mod.Namespaces[p])
	}
	fmt.Fprintf(&b, "boundary-space preserve=%v\n", mod.BoundarySpacePreserve)
	for _, fd := range mod.Functions {
		fmt.Fprintf(&b, "function %s@%d:%d params=%+v ret=%+v\n", fd.Name, fd.P.Line, fd.P.Col, fd.Params, fd.Ret)
		describeExpr(&b, fd.Body)
	}
	for _, vd := range mod.Vars {
		fmt.Fprintf(&b, "variable %s@%d:%d\n", vd.Name, vd.P.Line, vd.P.Col)
		describeExpr(&b, vd.Val)
	}
	describeExpr(&b, mod.Body)
	for _, st := range mod.Stmts {
		b.WriteString(ast.PrintStmtAnnotated(st, nil))
		b.WriteByte('\n')
		describeStmt(&b, st)
	}
	return b.String()
}

func describeStmt(b *strings.Builder, st ast.UpdateStmt) {
	fmt.Fprintf(b, "%T@%d:%d\n", st, st.Pos().Line, st.Pos().Col)
	switch n := st.(type) {
	case *ast.InsertStmt:
		describeExpr(b, n.Source)
		describeExpr(b, n.Target)
	case *ast.DeleteStmt:
		describeExpr(b, n.Target)
	case *ast.ReplaceStmt:
		describeExpr(b, n.Target)
		describeExpr(b, n.Source)
	case *ast.RenameStmt:
		describeExpr(b, n.Target)
		describeExpr(b, n.Name)
	case *ast.ForStmt:
		describeExpr(b, n.In)
		describeExpr(b, n.Where)
		for _, s := range n.Body {
			describeStmt(b, s)
		}
	case *ast.BlockStmt:
		for _, s := range n.Stmts {
			describeStmt(b, s)
		}
	}
}

// describeExpr writes the printed form of e and the position of every node
// under it, including the positions that are not expression nodes (steps,
// FLWOR and quantifier bindings, literal attributes).
func describeExpr(b *strings.Builder, e ast.Expr) {
	if e == nil {
		b.WriteString("<nil>\n")
		return
	}
	b.WriteString(ast.Print(e))
	b.WriteByte('\n')
	ast.Walk(e, func(n ast.Expr) bool {
		fmt.Fprintf(b, " %T@%d:%d", n, n.Pos().Line, n.Pos().Col)
		switch n := n.(type) {
		case *ast.PathExpr:
			for _, s := range n.Steps {
				fmt.Fprintf(b, " step@%d:%d", s.P.Line, s.P.Col)
			}
		case *ast.FLWOR:
			for _, cl := range n.Clauses {
				switch c := cl.(type) {
				case ast.ForClause:
					fmt.Fprintf(b, " for@%d:%d", c.P.Line, c.P.Col)
				case ast.LetClause:
					fmt.Fprintf(b, " let@%d:%d", c.P.Line, c.P.Col)
				}
			}
		case *ast.Quantified:
			for _, v := range n.Vars {
				fmt.Fprintf(b, " in@%d:%d", v.P.Line, v.P.Col)
			}
		case *ast.DirElem:
			for _, a := range n.Attrs {
				fmt.Fprintf(b, " attr@%d:%d", a.P.Line, a.P.Col)
			}
			fmt.Fprintf(b, " literal=%v", n.LiteralText)
		}
		return true
	})
	b.WriteByte('\n')
}

// describeTokens renders the token stream of src up to EOF or the first
// lexical error.
func describeTokens(src string) string {
	var b strings.Builder
	lx := lexer.New(src)
	for i := 0; i <= len(src)+2; i++ {
		tok, err := lx.Next()
		if err != nil {
			fmt.Fprintf(&b, "error %q\n", err.Error())
			break
		}
		fmt.Fprintf(&b, "%d %q %d:%d +%d\n", tok.Kind, tok.Text, tok.Pos.Line, tok.Pos.Col, tok.Offset)
		if tok.Kind == lexer.EOF {
			break
		}
	}
	return b.String()
}

func TestFrontendPinned(t *testing.T) {
	cases, hand := pinnedCorpus(t)
	detail := map[string]string{}
	var got strings.Builder
	line := func(label, text string) {
		detail[label] = text
		sum := sha256.Sum256([]byte(text))
		fmt.Fprintf(&got, "%s %x\n", label, sum[:8])
	}
	for _, c := range cases {
		line(c.label, describe(c))
	}
	for _, src := range hand {
		line("tokens/"+srcID(src), describeTokens(src))
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(frontendGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(frontendGolden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("corpus has %d lines, golden %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			label := strings.Fields(gotLines[i])[0]
			t.Fatalf("first difference at line %d:\n got  %s\n want %s\nobserved:\n%s", i+1, gotLines[i], wantLines[i], detail[label])
		}
	}
}
