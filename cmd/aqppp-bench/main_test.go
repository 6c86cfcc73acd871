package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"aqppp/internal/experiments"
)

// smallFlags is experiments.Small() as aqppp-bench flags, with the
// dimension sweeps capped and two shard counts to keep the run short.
var smallFlags = []string{
	"-tpcd-rows", "20000", "-bigbench-rows", "15000", "-tlc-rows", "20000",
	"-queries", "12", "-sample-rate", "0.02", "-k", "200", "-seed", "42",
	"-max-dims", "3", "-shards", "1,2",
}

// TestRunAllPrintsEveryExperimentOnce: `all` prints one "=== name" block
// per registered experiment, in registry order.
func TestRunAllPrintsEveryExperimentOnce(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), append(smallFlags, "all"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var got []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "=== ") {
			got = append(got, strings.Fields(line)[1])
		}
	}
	var want []string
	for _, e := range experiments.All {
		want = append(want, e.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("blocks printed = %v, want %v", got, want)
	}
}

// TestRunUnknownExperiment: an unknown name exits 2 and lists the valid
// names.
func TestRunUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"figure99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, e := range experiments.All {
		if !strings.Contains(stderr.String(), e.Name) {
			t.Errorf("stderr does not list %q:\n%s", e.Name, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("an unknown name still ran experiments:\n%s", stdout.String())
	}
}
