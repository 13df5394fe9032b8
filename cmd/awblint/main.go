// Command awblint validates an AWB model against its metamodel and prints
// the advisories — the command-line face of the Omissions machinery. AWB's
// philosophy holds: everything here is a recommendation; the exit code is
// non-zero only for unreadable input, never for a "bad" model.
//
//	awblint -model testdata/example-model.xml
//	awblint -stream -model big-model.xml
//	awblint -demo -severity warning
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"syscall"

	"lopsided/internal/awb"
	"lopsided/internal/cliutil"
	"lopsided/internal/workload"
	"lopsided/internal/xmltree"
)

func main() {
	modelFile := flag.String("model", "", "AWB model interchange XML (\"-\" for stdin)")
	demo := flag.Bool("demo", false, "use the built-in demo model")
	severity := flag.String("severity", "info", "minimum severity to print: info | warning")
	streaming := flag.Bool("stream", false, "parse the model incrementally and report bytes scanned and peak RSS")
	flag.Parse()

	var model *awb.Model
	var scanned int64
	switch {
	case *demo:
		model = workload.BuildITModel(workload.Config{
			Seed: 42, Users: 10, Systems: 4, Docs: 6,
			MissingVersionEvery: 3, OverrideEvery: 3,
			OmitSystemBeingDesigned: true,
		})
	case *modelFile != "":
		var err error
		if *streaming {
			model, scanned, err = loadStreaming(*modelFile)
		} else {
			var data []byte
			if data, err = os.ReadFile(*modelFile); err == nil {
				model, err = awb.ImportXML(string(data))
			}
		}
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: awblint (-demo | -model m.xml) [-stream] [-severity info|warning]")
		os.Exit(2)
	}

	min := awb.Info
	switch *severity {
	case "info":
	case "warning":
		min = awb.Warning
	default:
		fatal(fmt.Errorf("unknown severity %q", *severity))
	}

	stats := model.Stats()
	fmt.Printf("model %q: %d nodes, %d relations\n", model.Meta.Name, stats.Nodes, stats.Relations)
	count := 0
	for _, adv := range model.Validate() {
		if adv.Severity < min {
			continue
		}
		count++
		loc := ""
		if adv.NodeID != "" {
			loc = " [" + adv.NodeID + "]"
		}
		fmt.Printf("%-7s %-20s%s %s\n", adv.Severity, adv.Code, loc, adv.Message)
	}
	if count == 0 {
		fmt.Println("no advisories — the model even matches the metamodel's fond hopes")
	}
	if *streaming {
		fmt.Fprintf(os.Stderr, "stream: bytes-scanned=%d peak-rss-kb=%d\n", scanned, peakRSSKB())
	}
}

// loadStreaming parses the model incrementally from the file (or stdin for
// "-") so the raw XML never exists as one in-memory string, and reports the
// bytes the parse read.
func loadStreaming(path string) (*awb.Model, int64, error) {
	in := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		in = f
	}
	doc, st, err := xmltree.ParseProjectedStats(in, nil, xmltree.ParseOptions{TrimWhitespace: true})
	if err != nil {
		return nil, st.BytesRead, fmt.Errorf("awb: %w", err)
	}
	m, err := awb.ImportXMLDoc(doc)
	return m, st.BytesRead, err
}

// peakRSSKB reports the process's peak resident set size in kilobytes, or 0
// where the platform doesn't expose it.
func peakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss // kilobytes on Linux
}

func fatal(err error) {
	os.Exit(cliutil.Report(os.Stderr, "awblint", err))
}
