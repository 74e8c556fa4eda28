// Package lint implements cppe-lint, the repository's determinism and
// simulation-safety static analyzer. The simulator's value rests on
// bit-for-bit reproducible replay (DESIGN §6–8); lint makes the rules that
// guarantee it machine-checked instead of tribal knowledge:
//
//   - mapiter: no ranging over a map in simulation-core code — Go randomizes
//     map iteration order, so any map-order-dependent state diverges between
//     runs (the uvm commitMigration grouping bug, found by hand once).
//   - wallclock: no time.Now/time.Since outside the engine watchdog — wall
//     time must never leak into simulated state.
//   - globalrand: no package-level math/rand functions — randomness must come
//     from injected, seeded *rand.Rand values.
//   - panicfree: no panic() on simulation runtime paths — failures must be
//     returned as errors and surfaced through Result.Err (DESIGN §8);
//     constructor/validator geometry checks (New*, Validate*) stay panics.
//   - gofreeze: no go statements inside the event-driven core — concurrency
//     inside one simulation would break (cycle, seq) replay; only the harness
//     fan-out over independent simulations may spawn goroutines.
//
// On top of the file-local passes, three semantic analyzers reason over the
// type-checked whole-program graph (see program.go):
//
//   - viewleak: the policy.MachineView read-only contract (DESIGN §13) —
//     views bind once in BindView, and the RecentEvictions window is never
//     retained or written through.
//   - detreach: cross-package reachability — no sim-core call path may reach
//     wall clocks, global rand, map iteration, or goroutine spawns in
//     module-local packages outside the per-package lint scope.
//   - errdrop: no silently discarded error returns in sim-core (the
//     Result.Err discipline of DESIGN §8); explicit `_ =` stays legal.
//
// A well-formed waiver that no longer suppresses anything is itself a
// diagnostic (the unused-waiver audit), so waivers cannot rot in place.
//
// A finding can be waived per line with a justified directive comment:
//
//	for k := range m { // cppelint:ordered keys copied and sorted below
//
// written as //cppelint:<directive> <reason>. The reason is mandatory; a
// bare directive is itself a diagnostic. The directive may sit on the
// offending line or on the line directly above it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, formatted as file:line: [check] message.
type Diagnostic struct {
	File    string `json:"file"` // module-root-relative path
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Check, d.Message)
}

// Check is one analyzer of the suite.
type Check struct {
	Name string
	// Directive is the waiver directive suppressing this check
	// (//cppelint:<directive> <reason>).
	Directive string
	Doc       string
	// Packages lists the base names of the internal/ packages the check
	// applies to when scoping is active. Explicitly named directories (the
	// self-test fixtures) are always checked in full.
	Packages []string
	run      func(pkg *Package, ctx *checkContext)
}

// simCore is the set of internal/ simulation packages under the determinism
// contract. Out of scope stay: trace and memdef (pure I/O and configuration,
// no simulated time), core (policy wiring), lint itself, and the cmd/,
// examples/ and root API layers, which run outside the event loop.
var simCore = []string{
	"engine", "uvm", "sm", "tlb", "ptw", "pagetable", "cache", "dram",
	"xbus", "evict", "prefetch", "policy", "harness", "audit", "inject",
	"workload", "stats",
}

// Checks returns the full analyzer suite.
func Checks() []*Check {
	return []*Check{
		{
			Name:      "mapiter",
			Directive: "ordered",
			Doc:       "no for-range over a map in simulation-core code (iteration order is randomized)",
			Packages:  simCore,
			run:       checkMapIter,
		},
		{
			Name:      "wallclock",
			Directive: "wallclock",
			Doc:       "no wall-clock reads (time.Now, time.Since, ...) outside the engine watchdog",
			Packages:  simCore,
			run:       checkWallClock,
		},
		{
			Name:      "globalrand",
			Directive: "globalrand",
			Doc:       "no package-level math/rand functions; use injected seeded *rand.Rand",
			Packages:  simCore,
			run:       checkGlobalRand,
		},
		{
			Name:      "panicfree",
			Directive: "panicfree",
			Doc:       "no panic on simulation runtime paths; constructors/validators (New*, Validate*, Must*) excepted",
			Packages:  simCore,
			run:       checkPanicFree,
		},
		{
			Name:      "gofreeze",
			Directive: "gofreeze",
			Doc:       "no go statements in the event-driven core; only the harness fan-out is concurrent",
			Packages:  simCore,
			run:       checkGoFreeze,
		},
		{
			Name:      "viewleak",
			Directive: "viewleak",
			Doc:       "MachineView and its RecentEvictions window must not be retained or written through (read-only policy contract)",
			Packages:  simCore,
			run:       checkViewLeak,
		},
		{
			Name:      "detreach",
			Directive: "detreach",
			Doc:       "no sim-core call path may reach wall clocks, global rand, map iteration, or goroutines in downstream packages",
			Packages:  simCore,
			run:       checkDetReach,
		},
		{
			Name:      "errdrop",
			Directive: "errdrop",
			Doc:       "no silently discarded error returns in sim-core; handle, assign explicitly, or waive",
			Packages:  simCore,
			run:       checkErrDrop,
		},
	}
}

// checkContext carries per-package reporting state into a check run, plus
// the whole-program graph the semantic analyzers consult.
type checkContext struct {
	check   *Check
	runner  *Runner
	prog    *Program
	waivers map[string]map[int]*waiver // file -> line -> waiver
}

// reportNode files a diagnostic at n unless a matching waiver covers its line.
func (ctx *checkContext) reportNode(pkg *Package, n ast.Node, format string, args ...interface{}) {
	pos := pkg.Fset.Position(n.Pos())
	if w := ctx.waiverAt(pos.Filename, pos.Line); w != nil && w.directive == ctx.check.Directive && w.reason != "" {
		w.used = true
		return
	}
	ctx.runner.report(Diagnostic{
		File:    ctx.runner.relPath(pos.Filename),
		Line:    pos.Line,
		Col:     pos.Column,
		Check:   ctx.check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// waiverAt returns the waiver covering line (same line or the line above).
func (ctx *checkContext) waiverAt(file string, line int) *waiver {
	byLine := ctx.waivers[file]
	if byLine == nil {
		return nil
	}
	if w := byLine[line]; w != nil {
		return w
	}
	return byLine[line-1]
}

// waiver is one parsed //cppelint: directive comment.
type waiver struct {
	directive string
	reason    string
	line      int
	used      bool
}

var waiverRe = regexp.MustCompile(`^//\s*cppelint:(\S+)[ \t]*(.*)$`)

// parseWaivers extracts cppelint directives from a file's comments. Malformed
// directives (no reason, or an unknown directive name) are diagnostics in
// their own right: a waiver without a justification is worthless during
// review, and a typoed directive silently waives nothing.
func parseWaivers(pkg *Package, f *ast.File, known map[string]bool, r *Runner) map[int]*waiver {
	byLine := make(map[int]*waiver)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := waiverRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			w := &waiver{directive: m[1], reason: strings.TrimSpace(m[2]), line: pos.Line}
			switch {
			case !known[w.directive]:
				r.report(Diagnostic{
					File: r.relPath(pos.Filename), Line: pos.Line, Col: pos.Column,
					Check:   "waiver",
					Message: fmt.Sprintf("unknown cppelint directive %q", w.directive),
				})
			case w.reason == "":
				r.report(Diagnostic{
					File: r.relPath(pos.Filename), Line: pos.Line, Col: pos.Column,
					Check:   "waiver",
					Message: fmt.Sprintf("cppelint:%s waiver is missing its mandatory reason", w.directive),
				})
			}
			byLine[w.line] = w
		}
	}
	return byLine
}

// Runner applies the suite to a set of packages and collects diagnostics.
type Runner struct {
	Loader *Loader
	Checks []*Check
	// Scoped restricts each check to its Packages list (the ./... mode). When
	// false — explicitly named directories, i.e. fixtures — every check runs
	// on every package.
	Scoped bool

	diags []Diagnostic
}

// NewRunner returns a runner over the full suite.
func NewRunner(l *Loader, scoped bool) *Runner {
	return &Runner{Loader: l, Checks: Checks(), Scoped: scoped}
}

func (r *Runner) report(d Diagnostic) { r.diags = append(r.diags, d) }

// relPath renders file paths relative to the module root for stable output.
func (r *Runner) relPath(abs string) string {
	if rel, err := filepath.Rel(r.Loader.ModuleRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return abs
}

// inScope reports whether check c applies to pkg under scoping: the package
// must be exactly internal/<name> for one of the check's listed names.
func (r *Runner) inScope(c *Check, pkg *Package) bool {
	if !r.Scoped {
		return true
	}
	for _, name := range c.Packages {
		if pkg.ImportPath == r.Loader.ModulePath+"/internal/"+name {
			return true
		}
	}
	return false
}

// LintDirs loads and lints the given package directories, returning all
// diagnostics sorted by position. Loading happens in two phases: every
// target (and, transitively, every module-local dependency) is parsed and
// type-checked first, so the semantic analyzers see one consistent
// whole-program graph; then each target package runs its in-scope checks.
// A package that fails to parse or type-check reports its problems as
// [typecheck] diagnostics and is skipped — it never aborts the run.
func (r *Runner) LintDirs(dirs []string) ([]Diagnostic, error) {
	known := make(map[string]bool)
	for _, c := range r.Checks {
		known[c.Directive] = true
	}
	directiveCheck := make(map[string]string) // directive -> check name
	for _, c := range r.Checks {
		directiveCheck[c.Directive] = c.Name
	}

	// Phase 1: load every target so the program graph is complete.
	var targets []*Package
	for _, dir := range dirs {
		pkg, err := r.Loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		targets = append(targets, pkg)
	}
	prog := newProgram(r.Loader)

	// Phase 2: run the suite per target package.
	for _, pkg := range targets {
		if pkg.Broken {
			for _, d := range pkg.Errors {
				r.report(d)
			}
			continue
		}
		ranChecks := make(map[string]bool) // check name -> ran on this package
		anyCheck := false
		for _, c := range r.Checks {
			if r.inScope(c, pkg) {
				anyCheck = true
				ranChecks[c.Name] = true
			}
		}
		if !anyCheck {
			continue
		}
		waivers := make(map[string]map[int]*waiver)
		fileNames := make([]string, 0, len(pkg.Files))
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			fileNames = append(fileNames, name)
			waivers[name] = parseWaivers(pkg, f, known, r)
		}
		for _, c := range r.Checks {
			if !r.inScope(c, pkg) {
				continue
			}
			c.run(pkg, &checkContext{check: c, runner: r, prog: prog, waivers: waivers})
		}
		r.auditWaivers(pkg, fileNames, waivers, directiveCheck, ranChecks)
	}
	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i], r.diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return r.diags, nil
}

// auditWaivers reports well-formed waivers that suppressed nothing: the
// check they name ran on this package and produced no finding on their line
// (or the line below). Without this audit, waivers rot — the guarded code is
// refactored away, the directive stays, and a future real finding on that
// line is silently swallowed. Audited waivers must have a known directive
// and a reason (malformed ones are already diagnostics) and their check must
// actually have run here, so out-of-scope packages don't produce noise.
func (r *Runner) auditWaivers(pkg *Package, fileNames []string, waivers map[string]map[int]*waiver, directiveCheck map[string]string, ranChecks map[string]bool) {
	sort.Strings(fileNames)
	for _, name := range fileNames {
		byLine := waivers[name]
		lines := make([]int, 0, len(byLine))
		for line := range byLine {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			w := byLine[line]
			checkName, knownDirective := directiveCheck[w.directive]
			if !knownDirective || w.reason == "" || w.used || !ranChecks[checkName] {
				continue
			}
			r.report(Diagnostic{
				File: r.relPath(name), Line: w.line, Col: 1,
				Check:   "waiver",
				Message: fmt.Sprintf("unused cppelint:%s waiver: the %s check reports nothing on this line — remove the waiver or update its position", w.directive, checkName),
			})
		}
	}
}

// enclosingFuncName returns the name of the innermost function declaration
// containing pos ("" for file-scope code). Methods report their bare name.
func enclosingFuncName(f *ast.File, pos token.Pos) string {
	name := ""
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() > pos || n.End() <= pos {
			return false // prune subtrees that cannot contain pos
		}
		if fd, ok := n.(*ast.FuncDecl); ok {
			name = fd.Name.Name
		}
		return true
	})
	return name
}
