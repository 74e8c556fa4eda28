package lint

import "testing"

// The semantic-analyzer fixtures pin exact diagnostics, the same contract the
// file-local fixtures have held since v1: a change to an analyzer that shifts
// a message, position, or count is visible in review as a test diff.

func TestFixtureViewLeak(t *testing.T) {
	assertDiags(t, lintFixture(t, "viewleak"), []string{
		"internal/lint/testdata/src/viewleak/viewleak.go:18: [viewleak] MachineView stored in a package-level variable: the view must live only in the bound policy (DESIGN §13)",
		"internal/lint/testdata/src/viewleak/viewleak.go:23: [viewleak] MachineView stored in a field outside BindView: the view is bound exactly once, at machine construction (DESIGN §13)",
		"internal/lint/testdata/src/viewleak/viewleak.go:29: [viewleak] RecentEvictions window retained in a struct field: the slice is the view's reused buffer, valid only until the next call — copy what you need or waive with //cppelint:viewleak <reason>",
		"internal/lint/testdata/src/viewleak/viewleak.go:30: [viewleak] write through the RecentEvictions window: it is the view's reused buffer, which the machine never reads back and the next call overwrites (DESIGN §13 read-only contract)",
	})
}

func TestFixtureDetReach(t *testing.T) {
	assertDiags(t, lintFixture(t, "detreach"), []string{
		"internal/lint/testdata/src/detreach/detreach.go:10: [detreach] call to detreachdep.Stamp reaches nondeterminism outside the linted scope: detreachdep.Stamp -> detreachdep.tick reads the wall clock (time.Now)",
	})
}

func TestFixtureErrDrop(t *testing.T) {
	assertDiags(t, lintFixture(t, "errdrop"), []string{
		"internal/lint/testdata/src/errdrop/errdrop.go:17: [errdrop] discarded error from flush: handle it, assign it explicitly (_ = ...), or waive with //cppelint:errdrop <reason>",
		"internal/lint/testdata/src/errdrop/errdrop.go:18: [errdrop] discarded error from flush: handle it, assign it explicitly (_ = ...), or waive with //cppelint:errdrop <reason>",
	})
}

// TestFixtureWaiverUnused pins the unused-waiver audit: the stale waiver over
// a slice range is a diagnostic, the live waiver over a map range is not.
func TestFixtureWaiverUnused(t *testing.T) {
	assertDiags(t, lintFixture(t, "waiverunused"), []string{
		"internal/lint/testdata/src/waiverunused/waiverunused.go:9: [waiver] unused cppelint:ordered waiver: the mapiter check reports nothing on this line — remove the waiver or update its position",
	})
}
