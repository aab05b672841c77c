// Command brlint runs Bladerunner's static-analysis suite (internal/lint)
// over the module: the invariants neither the compiler nor `go vet` checks.
// It is part of the tier-1 verification line:
//
//	go build ./... && go vet ./... && go run ./cmd/brlint ./... && go test ./...
//
// Usage:
//
//	brlint [-suppressions] [packages ...]
//
// Packages are directories relative to the module root (or absolute), with
// the go-style "/..." suffix for subtrees; the default is "./...". Every
// rule runs. Exit status is 0 when clean, 1 when diagnostics were reported,
// 2 on load or usage errors. Diagnostics follow the
// "file:line:col: rule: message" shape that
// .github/brlint-problem-matcher.json turns into GitHub code annotations.
//
// With -suppressions, instead of linting, brlint prints every active
// //brlint:allow(rule) suppression with its file:line and reason — the
// repository's live invariant debt — and exits 0 (or 1 if any suppression
// never matched a diagnostic, i.e. is stale).
package main

import (
	"flag"
	"fmt"
	"os"

	"bladerunner/internal/lint"
)

func main() {
	suppressions := flag.Bool("suppressions", false, "audit //brlint:allow suppressions instead of reporting diagnostics")
	flag.Parse()

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}

	runner := lint.NewRunner(loader)
	diags := runner.Run(pkgs)

	if *suppressions {
		sups := runner.Suppressions()
		stale := 0
		for _, s := range sups {
			status := ""
			if !s.Used {
				stale++
				status = "  [stale: suppresses nothing]"
			}
			fmt.Printf("%s:%d: allow(%s) %s%s\n", s.File, s.Line, s.Rule, s.Reason, status)
		}
		fmt.Printf("%d suppression(s), %d stale\n", len(sups), stale)
		if stale > 0 {
			os.Exit(1)
		}
		return
	}

	for _, d := range diags {
		fmt.Printf("%s: %s: %s\n", d.Pos, d.Rule, d.Message)
	}
	if len(diags) > 0 {
		fmt.Printf("brlint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
