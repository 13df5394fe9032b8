// Command xqdiff is the differential conformance harness CLI: it generates
// seeded random queries and evaluates each under every execution
// configuration of the engine (optimizer levels O0-O2 × fresh/cached plans ×
// traced/untraced evaluation, plus the Galax-era trace-elimination mode),
// reporting any configuration pair that disagrees on the serialized result
// or the error code.
//
//	xqdiff -n 1000                 # sweep seeds 1..1000 over the full matrix
//	xqdiff -n 5000 -jobs 4         # same sweep across 4 worker goroutines
//	xqdiff -seed 485               # replay one numeric seed
//	xqdiff -seed ci -n 500         # named seed: start point hashed from the name
//	xqdiff -config O0,O2+cache     # restrict the comparison to two configs
//	xqdiff -seed 485 -minimize     # shrink a divergence to a minimal reproducer
//	xqdiff -updates -n 1000        # sweep update programs: every config's COW
//	                               # apply vs the eager deep-copy oracle
//	xqdiff -calls -n 1000          # sweep queries that call user functions,
//	                               # zero-arity invariant ones included
//	xqdiff -list-configs           # print the configuration matrix
//
// On a divergence, xqdiff prints both outcomes, the query and document, and
// the EXPLAIN dumps of the two disagreeing configurations side by side.
//
// Exit codes: 0 no divergence, 1 divergence found, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lopsided/internal/difftest"
)

func main() {
	seedFlag := flag.String("seed", "1", "start seed: a number, or a name (e.g. \"ci\") hashed to one")
	n := flag.Int("n", 1, "how many consecutive seeds to sweep")
	configFlag := flag.String("config", "", "comma-separated configuration names to compare (default: full matrix); first is the baseline")
	minimize := flag.Bool("minimize", false, "shrink each divergence to a minimal reproducer")
	budget := flag.Bool("budget", true, "also check step-budget trip parity within each optimizer level")
	updates := flag.Bool("updates", false, "generate update programs instead of queries; compares every configuration's copy-on-write apply against the eager deep-copy oracle (ignores -budget and -minimize)")
	calls := flag.Bool("calls", false, "generate queries that call a prolog of user functions, zero-arity invariant ones included (ignores -minimize)")
	jobs := flag.Int("jobs", 1, "parallel workers for the sweep (divergence reports stay in seed order)")
	quiet := flag.Bool("q", false, "only print divergences and the summary")
	listConfigs := flag.Bool("list-configs", false, "print the configuration matrix and exit")
	flag.Parse()

	if *listConfigs {
		for _, cfg := range difftest.Matrix() {
			fmt.Println(cfg.Name)
		}
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: xqdiff [-seed n|name] [-n count] [-config a,b] [-minimize]")
		os.Exit(2)
	}

	start, err := resolveSeed(*seedFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqdiff:", err)
		os.Exit(2)
	}
	configs, err := resolveConfigs(*configFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqdiff:", err)
		os.Exit(2)
	}
	if *n < 1 {
		fmt.Fprintln(os.Stderr, "xqdiff: -n must be at least 1")
		os.Exit(2)
	}

	// The sweep itself parallelizes cleanly: each seed generates its own
	// case and the engine is safe for concurrent compilation/evaluation
	// (the workers share the process-wide plan cache). Divergences are
	// collected per-index and reported afterwards in seed order, so the
	// output is identical at any -jobs value.
	check := func(i int) *difftest.Divergence {
		if *updates {
			return difftest.CheckUpdate(difftest.GenerateUpdate(start+int64(i)), configs)
		}
		c := difftest.Generate(start + int64(i))
		if *calls {
			c = difftest.GenerateCalls(start + int64(i))
		}
		d := difftest.Check(c, configs)
		if d == nil && *budget {
			d = difftest.CheckBudgeted(c)
		}
		return d
	}
	divs := make([]*difftest.Divergence, *n)
	workers := *jobs
	if workers < 1 {
		workers = 1
	}
	if workers > *n {
		workers = *n
	}
	if workers == 1 {
		for i := range divs {
			divs[i] = check(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(divs) {
						return
					}
					divs[i] = check(i)
				}
			}()
		}
		wg.Wait()
	}

	divergences := 0
	for _, d := range divs {
		if d == nil {
			continue
		}
		divergences++
		report(d, configs, *minimize && !*updates && !*calls, *updates)
	}
	if !*quiet || divergences > 0 {
		fmt.Printf("xqdiff: %d seeds from %d, %d configurations, %d divergence(s)\n",
			*n, start, len(effectiveConfigs(configs)), divergences)
	}
	if divergences > 0 {
		os.Exit(1)
	}
}

// resolveSeed accepts a decimal seed or hashes any other string into one, so
// CI can pin a stable named starting point ("-seed ci") without coordinating
// numbers.
func resolveSeed(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("-seed must not be empty")
	}
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v, nil
	}
	h := fnv.New64a()
	h.Write([]byte(s))
	// Keep it positive and leave headroom so seed+n cannot overflow.
	return int64(h.Sum64() % (1 << 62)), nil
}

func resolveConfigs(s string) ([]difftest.Config, error) {
	if s == "" {
		return nil, nil // Check defaults to the full matrix
	}
	names := strings.Split(s, ",")
	if len(names) < 2 {
		return nil, fmt.Errorf("-config wants at least two comma-separated names, got %q", s)
	}
	var out []difftest.Config
	for _, name := range names {
		cfg, ok := difftest.FindConfig(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown configuration %q (see -list-configs)", name)
		}
		out = append(out, cfg)
	}
	return out, nil
}

func effectiveConfigs(configs []difftest.Config) []difftest.Config {
	if len(configs) < 2 {
		return difftest.Matrix()
	}
	return configs
}

// report prints one divergence: both outcomes, optionally the minimized
// source, and (for query cases) the two EXPLAIN dumps side by side.
func report(d *difftest.Divergence, configs []difftest.Config, minimize, updates bool) {
	fmt.Printf("DIVERGENCE seed=%d policy=%v\n", d.Case.Seed, d.Case.Policy)
	fmt.Printf("  query: %s\n", d.Case.Src)
	fmt.Printf("  doc:   %s\n", d.Case.Doc)
	for _, o := range []difftest.Outcome{d.A, d.B} {
		if o.Code != "" {
			fmt.Printf("  %-16s error [%s] %s\n", o.Config.Name+":", o.Code, o.Err)
		} else {
			fmt.Printf("  %-16s %q\n", o.Config.Name+":", o.Out)
		}
	}
	if minimize {
		src, steps := difftest.Minimize(d.Case.Seed, configs)
		if steps > 0 {
			fmt.Printf("  minimized (%d steps): %s\n", steps, src)
		}
	}
	if updates {
		return // EXPLAIN below compiles the source as a query
	}
	fmt.Println(sideBySide(
		d.A.Config.Name, difftest.Explain(d.Case, d.A.Config),
		d.B.Config.Name, difftest.Explain(d.Case, d.B.Config)))
}

// sideBySide renders two EXPLAIN dumps in two columns.
func sideBySide(nameA, a, nameB, b string) string {
	la := strings.Split(strings.TrimRight(a, "\n"), "\n")
	lb := strings.Split(strings.TrimRight(b, "\n"), "\n")
	width := len(nameA)
	for _, l := range la {
		if len(l) > width {
			width = len(l)
		}
	}
	var out strings.Builder
	fmt.Fprintf(&out, "  %-*s | %s\n", width, nameA, nameB)
	fmt.Fprintf(&out, "  %s-+-%s\n", strings.Repeat("-", width), strings.Repeat("-", width))
	for i := 0; i < len(la) || i < len(lb); i++ {
		var l, r string
		if i < len(la) {
			l = la[i]
		}
		if i < len(lb) {
			r = lb[i]
		}
		fmt.Fprintf(&out, "  %-*s | %s\n", width, l, r)
	}
	return out.String()
}
