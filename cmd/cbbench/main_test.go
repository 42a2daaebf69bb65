package main

import (
	"testing"

	"cbb/internal/experiments"
)

// TestExperimentList checks the one list of experiment names: every name is
// its own runner case, "all" stays reserved for the whole list, a listed
// experiment runs, and a name not on the list is an error.
func TestExperimentList(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, e := range experimentList {
		if seen[e.name] || e.run == nil {
			t.Errorf("experiment %q is listed twice, reserved, or has no runner", e.name)
		}
		seen[e.name] = true
	}
	r := &runner{cfg: experiments.Config{Seed: 42}}
	if err := r.run("fig08"); err != nil { // the paper's running example: milliseconds
		t.Fatal(err)
	}
	if err := r.run("throughput"); err == nil {
		t.Error("an experiment that is not listed must be an error")
	}
}
