// Command mobilint is the repo's static-analysis gate: it enforces the
// determinism, goroutine-capture, error-hygiene, documentation,
// hot-path allocation and stdout-purity contracts documented in
// DESIGN.md ("Enforced invariants") on every package in the module.
//
// Usage:
//
//	go run ./cmd/mobilint ./...            # lint the whole module
//	go run ./cmd/mobilint internal/sim     # lint one package
//	go run ./cmd/mobilint -list            # show the checks
//	go run ./cmd/mobilint -checks map-order,time-now ./...
//	go run ./cmd/mobilint -format json ./...   # CI artifact
//
// Exit status: 0 clean, 1 findings, 2 usage or analysis error. There
// is no suppression directive or baseline: a finding is fixed in the
// code.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mobiwlan/internal/lint"
)

//mobilint:stdout mobilint's findings and listings are its primary output, consumed by CI and terminals
func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable CLI body; exit-code semantics (0 clean, 1
// findings, 2 usage/analysis error) are pinned by main_test.go.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mobilint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list registered checks and exit")
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all checks)")
	format := fs.String("format", "text", "output format: text or json")
	fs.Usage = func() {
		_, _ = fmt.Fprintf(stderr, "usage: mobilint [-list] [-checks c1,c2] [-format text|json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		sorted := append([]*lint.Check(nil), lint.Checks...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		for _, c := range sorted {
			_, _ = fmt.Fprintf(stdout, "%-18s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	switch *format {
	case "text", "json":
	default:
		_, _ = fmt.Fprintf(stderr, "mobilint: unknown -format %q (want text or json)\n", *format)
		return 2
	}

	cfg := lint.Config{Dir: ".", Patterns: fs.Args()}
	if *checks != "" {
		cfg.Checks = strings.Split(*checks, ",")
	}
	findings, err := lint.Run(cfg)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "mobilint:", err)
		return 2
	}

	switch *format {
	case "json":
		if err := lint.WriteJSON(stdout, findings); err != nil {
			_, _ = fmt.Fprintln(stderr, "mobilint:", err)
			return 2
		}
	default:
		for _, f := range findings {
			_, _ = fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		_, _ = fmt.Fprintf(stderr, "mobilint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
