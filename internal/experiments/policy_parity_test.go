package experiments_test

import (
	"slices"
	"testing"

	"nimblock"
	"nimblock/internal/experiments"
)

// The public Algorithm set and the experiments policy table are one
// list: every algorithm resolves, and the table knows no other name.
func TestPolicyTableMatchesAlgorithms(t *testing.T) {
	var algos []string
	for _, a := range nimblock.Algorithms() {
		algos = append(algos, string(a))
		if _, err := experiments.Policy(string(a)); err != nil {
			t.Errorf("algorithm %s: %v", a, err)
		}
	}
	for _, name := range experiments.PolicyTableNames() {
		if !slices.Contains(algos, name) {
			t.Errorf("policy table knows %q, which Algorithms() does not list", name)
		}
	}
	if _, err := experiments.Policy("nope"); err == nil {
		t.Error("unknown policy resolved")
	}
}
