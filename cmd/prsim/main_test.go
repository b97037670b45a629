package main

import (
	"errors"
	"strings"
	"testing"
)

// TestVerbs runs every verb in-process on inputs small enough that the
// whole table finishes in a few seconds.
func TestVerbs(t *testing.T) {
	for _, args := range [][]string{
		{"figures", "2a", "-scenarios", "3"},
		{"figures", "overheads"},
		{"figures", "losswindow"},
		{"compile", "-topo", "ring:8"},
		{"churn", "-topo", "ring:8", "-edits", "2"},
		{"certify", "-topo", "ring:8"},
		{"resilience", "-topo", "ring:8", "-draws", "2"},
		{"soak", "-topo", "ring:8", "-flows", "200", "-duration", "200ms"},
		{"throughput", "-topo", "ring:8", "-packets", "4096"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("prsim %s: %v", strings.Join(args, " "), err)
			}
		})
	}
}

// TestUsageErrors checks that a command line without a known verb —
// including the retired flat mode flags — is refused with a usage error
// that lists every verb.
func TestUsageErrors(t *testing.T) {
	if err := run([]string{"-fig", "2a"}); err == nil || err.Error() != usage {
		t.Fatalf("prsim -fig 2a: got %v, want %q", err, usage)
	}
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"-fig", "2a"},
		{"-soak"},
		{"-dataplane", "compiled"},
	} {
		err := run(args)
		if !errors.As(err, &usageError{}) {
			t.Errorf("prsim %q: got %v, want a usage error", args, err)
			continue
		}
		for verb := range subcommands {
			if !strings.Contains(err.Error(), verb) {
				t.Errorf("prsim %q: usage error %q does not name verb %q", args, err, verb)
			}
		}
	}
	for _, args := range [][]string{
		{"figures", "2z"},
		{"figures", "2a", "2b"},
		{"figures", "losswindow", "-dataplane", "compiled"},
	} {
		if err := run(args); !errors.As(err, &usageError{}) {
			t.Errorf("prsim %q: got %v, want a usage error", args, err)
		}
	}
}
