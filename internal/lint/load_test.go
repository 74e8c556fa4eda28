package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtureBuildTags asserts the loader evaluates build constraints the way
// `go build` does: excluded.go is gated behind a never-set tag, so its mapiter
// violation must not load, let alone report.
func TestFixtureBuildTags(t *testing.T) {
	assertDiags(t, lintFixture(t, "buildtags"), nil)
}

// TestFixtureTypeError asserts graceful degradation on a package that fails
// type checking: the problem surfaces as a [typecheck] diagnostic and the run
// completes instead of aborting.
func TestFixtureTypeError(t *testing.T) {
	diags := lintFixture(t, "typeerror")
	if len(diags) == 0 {
		t.Fatal("type-error fixture produced no diagnostics")
	}
	for _, d := range diags {
		if !strings.Contains(d, "[typecheck]") {
			t.Errorf("unexpected non-typecheck diagnostic: %s", d)
		}
	}
	if !strings.Contains(diags[0], "internal/lint/testdata/src/typeerror/typeerror.go:8:") {
		t.Errorf("typecheck diagnostic not anchored at the offending line: %s", diags[0])
	}
}

// TestBrokenDependencyFailsLoad pins the other half of the contract: a lint
// *target* with type errors degrades to diagnostics, but importing a broken
// package is a hard load error (its type information cannot be trusted).
func TestBrokenDependencyFailsLoad(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Import(l.ModulePath + "/internal/lint/testdata/src/typeerror"); err == nil {
		t.Fatal("importing a broken package did not fail")
	}
}

// TestSimCoreScopeIsComplete is the meta-test over the scoping list: every
// internal/ package directory is either in simCore (linted) or in the short,
// deliberate exempt list — so a newly added simulation package cannot silently
// escape the determinism contract — and every simCore name corresponds to a
// real directory, so the list cannot rot.
func TestSimCoreScopeIsComplete(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	// Packages outside the determinism contract, each for a stated reason:
	// lint (this tool), memdef (pure
	// configuration/geometry), policytest (runtime conformance kit: drives
	// simulations from tests), serve (network service layer around the
	// harness), trace (pure trace I/O).
	exempt := map[string]bool{
		"lint": true, "memdef": true,
		"policytest": true, "serve": true, "trace": true,
	}
	inCore := make(map[string]bool)
	for _, name := range simCore {
		inCore[name] = true
		if _, err := os.Stat(filepath.Join(l.ModuleRoot, "internal", name)); err != nil {
			t.Errorf("simCore lists %q but internal/%s does not exist", name, name)
		}
	}
	entries, err := os.ReadDir(filepath.Join(l.ModuleRoot, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		files, err := goFilesIn(filepath.Join(l.ModuleRoot, "internal", name))
		if err != nil || len(files) == 0 {
			continue
		}
		if inCore[name] == exempt[name] {
			t.Errorf("internal/%s must be in exactly one of simCore or the exempt list (simCore=%v exempt=%v)", name, inCore[name], exempt[name])
		}
	}
}
