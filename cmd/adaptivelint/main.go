// Command adaptivelint runs the repository's custom static-analysis
// suite (see internal/analysis) over the packages matching the given
// go-list patterns:
//
//	go run ./cmd/adaptivelint ./...
//
// The suite lives in internal/analysis/registry — run with -list for
// the authoritative roster, each analyzer's bug class and the directive
// grammar it consumes. In short: wirekind keeps the wire codec's frame
// kinds, decoder corpus and version gates coherent, internalboundary
// keeps cmd/ and examples/ behind the public facades, and buflife proves
// every pooled buffer is released exactly once and never read after
// release.
//
// -sarif <file> additionally writes the findings as a SARIF 2.1.0 log
// (rules populated from the registry metadata) so CI can surface them
// as GitHub code-scanning annotations; the plain-text output and exit
// status are unchanged. Exit status is 1 when any finding survives
// (suppressions need an inline //adaptivelint:ignore <analyzer> --
// <reason> justification), 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"adaptivecast/internal/analysis"
	"adaptivecast/internal/analysis/registry"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers, their bug classes and directives, then exit")
	sarifPath := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: adaptivelint [-list] [-sarif file] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := registry.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
			if a.BugClass != "" {
				fmt.Printf("%-18s   prevents: %s\n", "", a.BugClass)
			}
			for _, d := range a.Directives {
				fmt.Printf("%-18s   directive: %s\n", "", d)
			}
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptivelint:", err)
		os.Exit(2)
	}
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptivelint:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Println(d)
		}
		all = append(all, diags...)
	}
	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, analyzers, all); err != nil {
			fmt.Fprintln(os.Stderr, "adaptivelint:", err)
			os.Exit(2)
		}
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "adaptivelint: %d finding(s)\n", len(all))
		os.Exit(1)
	}
}

// writeSARIF writes the log with URIs relative to the working directory
// (the repo root in CI), which is what upload-sarif expects.
func writeSARIF(path string, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) error {
	root, err := os.Getwd()
	if err != nil {
		root = ""
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := analysis.WriteSARIF(f, analyzers, diags, root); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
