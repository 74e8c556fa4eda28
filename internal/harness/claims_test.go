package harness

import (
	"strings"
	"testing"
)

func TestClaimsStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := small()
	tb := experiment(t, s, "claims")
	claims := CheckClaims(s.Run)
	if len(claims) != 11 {
		t.Fatalf("claims = %d, want 11", len(claims))
	}
	ids := map[string]bool{}
	for _, c := range claims {
		if c.ID == "" || c.Text == "" || c.Detail == "" {
			t.Errorf("incomplete claim: %+v", c)
		}
		if ids[c.ID] {
			t.Errorf("duplicate claim id %q", c.ID)
		}
		ids[c.ID] = true
	}
	if len(tb.Rows) != len(claims) {
		t.Fatalf("table rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.Caption, "of 11 claims") {
		t.Fatalf("caption = %q", tb.Caption)
	}
}

// TestClaimsAllPassAtDefaultScale is the reproduction gate: every ordinal
// claim of the paper must hold at the default configuration. It is the
// executable form of EXPERIMENTS.md.
func TestClaimsAllPassAtDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full evaluation suite (~30s)")
	}
	s := NewSession(Config{})
	s.Warm(claimKeys(s.cfg))
	for _, c := range CheckClaims(s.Run) {
		if !c.Pass {
			t.Errorf("claim %q FAILED: %s (%s)", c.ID, c.Text, c.Detail)
		}
	}
}
