// Command awbquery evaluates an AWB calculus query against a model, with
// either the native evaluator or the compile-to-XQuery path.
//
//	awbquery -demo -e '<query><start type="User"/><sort by="label"/></query>'
//	awbquery -model m.xml -query q.xml -engine=xquery -print-xquery
//	awbquery -demo -engine=xquery -timeout 5s -max-steps 5000000 -query q.xml
//	awbquery -demo -engine=xquery -explain -query q.xml
//	awbquery -demo -engine=xquery -stats -query q.xml
//
// Errors print with their code and position; exit codes follow the
// cliutil taxonomy (2 usage, 3 static, 4 dynamic, 5 resource limit).
package main

import (
	"flag"
	"fmt"
	"os"

	"lopsided/internal/awb"
	"lopsided/internal/awb/calculus"
	"lopsided/internal/cliutil"
	"lopsided/internal/workload"
	"lopsided/internal/xmltree"
	"lopsided/xq"
)

func main() {
	modelFile := flag.String("model", "", "AWB model interchange XML")
	queryFile := flag.String("query", "", "calculus query XML file")
	inline := flag.String("e", "", "inline calculus query XML")
	engine := flag.String("engine", "native", "evaluator: native | xquery")
	printXQ := flag.Bool("print-xquery", false, "print the compiled XQuery source and exit")
	demo := flag.Bool("demo", false, "use the built-in demo model")
	ef := cliutil.AddEngineFlags(flag.CommandLine)
	flag.Parse()

	var model *awb.Model
	if *demo {
		model = workload.BuildITModel(workload.Config{Seed: 42, Users: 10, Systems: 4})
	} else {
		if *modelFile == "" {
			fmt.Fprintln(os.Stderr, "usage: awbquery (-demo | -model m.xml) (-e '<query>…' | -query q.xml) [-engine native|xquery]")
			os.Exit(2)
		}
		f, err := os.Open(*modelFile)
		if err != nil {
			fatal(err)
		}
		model, err = awb.ImportReader(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	src := *inline
	if src == "" {
		if *queryFile == "" {
			fmt.Fprintln(os.Stderr, "awbquery: need -e or -query")
			os.Exit(2)
		}
		data, err := os.ReadFile(*queryFile)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}
	q, err := calculus.ParseXML(src)
	if err != nil {
		fatal(err)
	}
	if *printXQ {
		fmt.Println(q.CompileXQuery())
		return
	}
	var ids []string
	switch *engine {
	case "native":
		nodes, err := q.EvalNative(model)
		if err != nil {
			fatal(err)
		}
		for _, n := range nodes {
			fmt.Printf("%s\t%s\t%s\n", n.ID, n.Type, n.Label())
		}
		return
	case "xquery":
		compiled, err := q.CompileWith(xq.WithLimits(ef.Limits()))
		if err != nil {
			fatal(err)
		}
		if ef.Explain {
			fmt.Print(compiled.Explain())
			return
		}
		var evalOpts []xq.Option
		var st xq.EvalStats
		if ef.Stats {
			evalOpts = append(evalOpts, xq.WithStats(&st))
		}
		ids, err = compiled.Run(xmltree.Freeze(model.ExportXML()), evalOpts...)
		if ef.Stats {
			fmt.Fprintln(os.Stderr, "stats:", st.String())
		}
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
	for _, id := range ids {
		n, _ := model.Node(id)
		if n != nil {
			fmt.Printf("%s\t%s\t%s\n", n.ID, n.Type, n.Label())
		} else {
			fmt.Println(id)
		}
	}
}

func fatal(err error) {
	os.Exit(cliutil.Report(os.Stderr, "awbquery", err))
}
