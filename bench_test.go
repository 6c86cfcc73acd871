package aqppp

// Benchmark harness: BenchmarkPaper runs every table/figure of the
// paper's evaluation (§7), one sub-benchmark per experiments.All entry, at
// the environment-configured scale (AQPPP_* variables, see
// internal/experiments.FromEnv), and prints each report once.
//
// Run everything:
//
//	go test -run '^$' -bench BenchmarkPaper -benchtime 1x
//
// Scale up toward the paper's setting:
//
//	AQPPP_TPCD_ROWS=2000000 AQPPP_QUERIES=1000 AQPPP_K=50000 \
//	  go test -run '^$' -bench BenchmarkPaper/table1 -benchtime 1x
import (
	"context"
	"fmt"
	"testing"

	"aqppp/internal/experiments"
)

func BenchmarkPaper(b *testing.B) {
	// Figures 7 and 11(b) stop at six dimensions: all ten at paper scale
	// is a long run (aqppp-bench runs them).
	o := experiments.Options{Scale: experiments.FromEnv(), MaxDims: 6, Shards: []int{1, 2, 4, 8}}
	printed := map[string]bool{}
	for _, e := range experiments.All {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := e.Run(context.Background(), o)
				if err != nil {
					b.Fatal(err)
				}
				if !printed[e.Name] {
					printed[e.Name] = true
					fmt.Printf("\n%s\n", rep)
				}
			}
		})
	}
}
