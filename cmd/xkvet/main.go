// Command xkvet is the repo's static-analysis gate: it loads every
// package in the module, type-checks it (standard library importers
// only — no x/tools), runs the internal/lint analyzers, and reports
// findings. It exits 0 when clean, 1 when there are findings, 2 on
// load/usage errors, regardless of output format.
//
// Output formats (-format):
//
//	text   one `file:line: [analyzer] message` per finding (default)
//	json   the version-1 JSON report (stable schema; see internal/lint)
//	sarif  minimal SARIF 2.1.0 for CI code-scanning uploads
//
// -sarif <path> additionally writes the SARIF log to a file no matter
// which -format is selected, so CI can keep human-readable text on
// stdout and still archive a machine-readable artifact.
//
// Findings are suppressed only by an explicit annotated comment on the
// offending line or the line above:
//
//	//xk:ignore <analyzer> <reason>
//
// A missing reason, an unknown analyzer name, or a doubled-up directive
// is itself a finding, so a typo can never silently disable a check.
//
// Usage:
//
//	xkvet [-dir .] [-analyzers errdrop,keyjoin,...] [-format text|json|sarif] [-sarif out.sarif] [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	dir := flag.String("dir", ".", "any directory inside the module to vet")
	names := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	format := flag.String("format", "text", "output format: text, json, or sarif")
	sarifOut := flag.String("sarif", "", "also write a SARIF 2.1.0 log to this file")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	all := lint.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *format != "text" && *format != "json" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "xkvet: unknown format %q (want text, json, or sarif)\n", *format)
		os.Exit(2)
	}

	selected := all
	if *names != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			n = strings.TrimSpace(n)
			a, ok := byName[n]
			if !ok {
				fmt.Fprintf(os.Stderr, "xkvet: unknown analyzer %q (use -list)\n", n)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	root, err := lint.ModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xkvet:", err)
		os.Exit(2)
	}
	findings, err := lint.CheckModule(root, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xkvet:", err)
		os.Exit(2)
	}

	if *sarifOut != "" {
		b, err := lint.FormatSARIF(findings, selected)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xkvet:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*sarifOut, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "xkvet:", err)
			os.Exit(2)
		}
	}

	switch *format {
	case "json":
		b, err := lint.FormatJSON(findings)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xkvet:", err)
			os.Exit(2)
		}
		os.Stdout.Write(b)
	case "sarif":
		b, err := lint.FormatSARIF(findings, selected)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xkvet:", err)
			os.Exit(2)
		}
		os.Stdout.Write(b)
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "xkvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
