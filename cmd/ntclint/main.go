// Command ntclint runs ntcsim's static-analysis suite (internal/lint):
// nine analyzers that mechanically enforce the simulator's determinism
// and instrumentation invariants — wallclock, globalrand, maprange,
// panicmsg, obsgate, units, floatorder, snapshotcheck, ctxloop. See the
// internal/lint package documentation for what each rule encodes and
// the //ntclint:allow escape hatch.
//
// Usage:
//
//	ntclint [dir]   lint every package of the enclosing module (default:
//	                the module containing the working directory)
//
// It prints one line per finding, deduplicated across a package's test
// variants and sorted by position. The Makefile's `make lint` target (a
// dependency of `make test`) runs it over the module. Exit status is
// non-zero when any violation is found.
package main

import (
	"flag"
	"fmt"
	"os"

	"ntcsim/internal/lint"
)

func main() {
	fs := flag.NewFlagSet("ntclint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ntclint [module-dir]")
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	dir := "."
	switch fs.NArg() {
	case 0:
	case 1:
		dir = fs.Arg(0)
	default:
		fs.Usage()
		os.Exit(2)
	}
	root, modpath, err := lint.FindModule(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntclint:", err)
		os.Exit(1)
	}
	diags, err := lint.LintModule(root, modpath, lint.Analyzers()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntclint:", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ntclint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}
