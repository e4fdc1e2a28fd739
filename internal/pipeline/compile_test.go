package pipeline

import (
	"strings"
	"testing"

	"repro/internal/cn"
)

// TestSubstitutionFailsLoudly is the regression test for the old
// fmt.Sscanf placeholder parsing, which silently skipped any keyword it
// could not parse: a generic network carrying a keyword that is not a
// placeholder of the shape must surface as an error, not compile into a
// template that substitutes nothing.
func TestSubstitutionFailsLoudly(t *testing.T) {
	poisoned := []*cn.Network{{
		Occs: []cn.Occ{{Schema: "nation", Keywords: []string{"not-a-placeholder"}}},
	}}
	_, err := (&Config{}).compile(poisoned, []string{"john"})
	if err == nil {
		t.Fatal("corrupt generic network compiled silently")
	}
	if !strings.Contains(err.Error(), "placeholder") {
		t.Fatalf("unexpected error: %v", err)
	}
}
