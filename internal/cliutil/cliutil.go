// Package cliutil gives every command-line tool in the repo one shared
// error surface: a structured one-line rendering (error code + source
// position + message) and an exit-code classification that lets scripts
// tell a malformed query from a failing one from one that hit the sandbox.
//
// Exit codes:
//
//	0  success
//	1  internal or unclassified failure (I/O, contained panic, plain errors)
//	2  usage error (bad flags/arguments)
//	3  static error: the program did not compile (lex/parse/XPST*/XQST*,
//	   or a static shape-analysis rejection carrying a runtime code such
//	   as XPTY0004)
//	4  dynamic error: the program failed while running (XPDY*/FO*/XQDY*,
//	   fn:error, malformed input documents)
//	5  resource-limit error: the sandbox stopped the program (LOPS0001–0005)
package cliutil

import (
	"fmt"
	"io"
	"strings"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/interp"
	"lopsided/internal/xquery/lexer"
	"lopsided/xq"
)

// Exit codes shared by all CLIs.
const (
	ExitOK       = 0
	ExitInternal = 1
	ExitUsage    = 2
	ExitStatic   = 3
	ExitDynamic  = 4
	ExitLimit    = 5
)

// Classify maps err to the exit code documented in the package comment.
// Daemon errors wrapped in ServerError classify by lifecycle phase: config
// and bind failures are usage errors, runtime aborts keep the wrapped
// error's class (see server.go).
func Classify(err error) int {
	if err == nil {
		return ExitOK
	}
	switch e := err.(type) {
	case *ServerError:
		return classifyServer(e)
	case *lexer.Error:
		return ExitStatic
	case *xmltree.ParseError:
		return ExitDynamic
	case *interp.Error:
		// Static-analysis rejections carry runtime codes (XPTY0004) but
		// never ran: the program itself is bad, so they classify with the
		// other compile failures regardless of code prefix.
		if e.Static {
			return ExitStatic
		}
	}
	code := xq.ErrorCode(err)
	switch {
	case code == "":
		return ExitInternal
	case code == interp.CodePanic:
		return ExitInternal
	case interp.IsLimitCode(code):
		return ExitLimit
	case strings.HasPrefix(code, "XPST") || strings.HasPrefix(code, "XQST"):
		return ExitStatic
	default:
		return ExitDynamic
	}
}

// Format renders err as the structured one-line diagnostic every CLI
// prints: "tool: [CODE] line:col: message". Position and code are omitted
// when the error does not carry them.
func Format(tool string, err error) string {
	if err == nil {
		return ""
	}
	if se, ok := err.(*ServerError); ok {
		return formatServer(tool, se)
	}
	var b strings.Builder
	b.WriteString(tool)
	b.WriteString(": ")
	switch e := err.(type) {
	case *interp.Error:
		fmt.Fprintf(&b, "[%s] ", e.Code)
		if e.Pos.Line > 0 {
			fmt.Fprintf(&b, "%d:%d: ", e.Pos.Line, e.Pos.Col)
		}
		b.WriteString(e.Msg)
	case *xdm.Error:
		fmt.Fprintf(&b, "[%s] ", e.Code)
		b.WriteString(e.Msg)
	case *lexer.Error:
		code := e.Code
		if code == "" {
			code = "XPST0003"
		}
		fmt.Fprintf(&b, "[%s] %d:%d: %s", code, e.Pos.Line, e.Pos.Col, e.Msg)
	case *xmltree.ParseError:
		fmt.Fprintf(&b, "xml %d:%d: %s", e.Line, e.Col, e.Msg)
	default:
		b.WriteString(err.Error())
	}
	return b.String()
}

// Report prints the structured diagnostic for err to w and returns the exit
// code the process should finish with.
func Report(w io.Writer, tool string, err error) int {
	if err == nil {
		return ExitOK
	}
	fmt.Fprintln(w, Format(tool, err))
	return Classify(err)
}
