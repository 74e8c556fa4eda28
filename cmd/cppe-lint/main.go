// Command cppe-lint runs the repository's determinism and simulation-safety
// static analyzers (package internal/lint) over the module: the five
// file-local determinism passes (mapiter, wallclock, globalrand, panicfree,
// gofreeze) plus the semantic whole-program suite (viewleak,
// detreach, errdrop) and the unused-waiver audit.
//
// Usage:
//
//	cppe-lint [-json] [-diff ref] [packages]
//
// Packages are directory paths; a trailing /... walks the subtree. With no
// arguments, ./... is assumed. Pattern arguments scope each check to the
// simulation-core packages it governs; naming a directory explicitly (as the
// self-test fixtures do) runs every check on it unconditionally.
//
// With -diff <ref>, the whole tree is still analyzed (the semantic passes
// need the full program graph) but only diagnostics on lines changed since
// the git ref are reported — the cheap incremental mode for pre-commit
// hooks: cppe-lint -diff HEAD, cppe-lint -diff origin/main.
//
// Exit status is 0 when the tree is clean, 1 when diagnostics were reported,
// and 2 on usage or load errors. Diagnostics print as
//
//	file:line: [check] message
//
// or, with -json, as a JSON array of {file, line, col, check, message}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"github.com/reproductions/cppe/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	listChecks := flag.Bool("checks", false, "list the analyzer suite and exit")
	diffRef := flag.String("diff", "", "report only diagnostics on lines changed since this git ref")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cppe-lint [-json] [-diff ref] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listChecks {
		for _, c := range lint.Checks() {
			fmt.Printf("%-10s (waiver //cppelint:%s) %s\n", c.Name, c.Directive, c.Doc)
		}
		return
	}

	patterns := flag.Args()
	scoped := false
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Walk patterns get per-check package scoping; explicit directories are
	// linted in full (that is how the fixtures assert their diagnostics).
	for _, p := range patterns {
		if strings.HasSuffix(p, "...") {
			scoped = true
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	dirs, err := loader.ExpandPatterns(patterns, cwd)
	if err != nil {
		fatal(err)
	}
	diags, err := lint.NewRunner(loader, scoped).LintDirs(dirs)
	if err != nil {
		fatal(err)
	}

	if *diffRef != "" {
		changed, err := changedSince(loader.ModuleRoot, *diffRef)
		if err != nil {
			fatal(err)
		}
		diags = lint.FilterChanged(diags, changed)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// changedSince runs git diff against ref and parses the changed Go lines.
// -U0 keeps hunks exact (no context lines inflating the changed set).
func changedSince(root, ref string) (lint.ChangedLines, error) {
	cmd := exec.Command("git", "-C", root, "diff", "-U0", ref, "--", "*.go")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("git diff %s: %v: %s", ref, err, strings.TrimSpace(errb.String()))
	}
	return lint.ParseUnifiedDiff(&out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cppe-lint:", err)
	os.Exit(2)
}
