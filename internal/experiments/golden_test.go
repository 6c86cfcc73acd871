package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/reports_small.golden from the current runners")

var (
	// durationToken matches a time.Duration as String prints it, with the
	// padding before it and AggPre's "> " estimate marker.
	durationToken = regexp.MustCompile(` *(> )?\b(?:\d+(?:\.\d+)?(?:ns|µs|us|ms|h|m|s))+\b`)
	// shardRow matches a row of the shard table: shards, ns/op, pruned,
	// speedup. Pruned counts skipped scans over the timed iterations, so
	// it varies with speed like the two timing columns.
	shardRow = regexp.MustCompile(`(?m)^( *\d+) +\d+ +\d+ +\d+\.\d+x$`)
)

// maskTimings replaces every wall-clock quantity in a report with a
// placeholder, leaving every estimate, error and label to compare.
func maskTimings(text string) string {
	text = durationToken.ReplaceAllString(text, " ${1}D")
	return shardRow.ReplaceAllString(text, "$1 N N Nx")
}

// TestReportsGolden pins the text of every experiment at Small scale,
// seed 42, with timings masked, so a refactor of the runners shows up as
// a diff in testdata/reports_small.golden. Regenerate with
// `go test ./internal/experiments -run TestReportsGolden -update`.
func TestReportsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden numbers are amd64's: other architectures fuse x*y+z into FMA, and a 1-ulp difference can flip an identification tie")
	}
	o := Options{Scale: Small(), Shards: []int{1, 2}}
	var sb strings.Builder
	for _, e := range All {
		rep, err := e.Run(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(&sb, "=== %s ===\n%s\n", e.Name, rep)
	}
	got := maskTimings(sb.String())

	path := filepath.Join("testdata", "reports_small.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
