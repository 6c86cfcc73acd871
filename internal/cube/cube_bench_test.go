package cube

import (
	"testing"

	"aqppp/internal/dataset"
)

func benchCube(b *testing.B, d, n, k int) (*BPCube, [][]int) {
	b.Helper()
	tbl := randomTable(d, n, 1000, 42)
	points := make([][]float64, d)
	for i := range points {
		pts := make([]float64, k)
		for j := range pts {
			pts[j] = float64((j + 1) * 1000 / k)
		}
		points[i] = pts
	}
	c, err := Build(tbl, Template{Agg: "a", Dims: dims(d)}, points)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-generate query corner index pairs.
	queries := make([][]int, 200)
	for qi := range queries {
		lohi := make([]int, 2*d)
		for i := 0; i < d; i++ {
			lo := qi % (k - 1)
			hi := lo + 1 + (qi % (k - lo - 1))
			lohi[i] = lo
			lohi[d+i] = hi
		}
		queries[qi] = lohi
	}
	return c, queries
}

// BenchmarkCubeBuild2D measures the Ho et al. construction: one scan plus
// d prefix passes.
func BenchmarkCubeBuild2D(b *testing.B) {
	tbl := randomTable(2, 100000, 1000, 42)
	points := make([][]float64, 2)
	for i := range points {
		pts := make([]float64, 64)
		for j := range pts {
			pts[j] = float64((j + 1) * 1000 / 64)
		}
		points[i] = pts
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(tbl, Template{Agg: "a", Dims: dims(2)}, points); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeSum measures the 2^d-corner lookup at several
// dimensionalities.
func BenchmarkRangeSum2D(b *testing.B) { benchRangeSum(b, 2) }

// BenchmarkRangeSum4D is the 16-corner case.
func BenchmarkRangeSum4D(b *testing.B) { benchRangeSum(b, 4) }

func benchRangeSum(b *testing.B, d int) {
	c, queries := benchCube(b, d, 20000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		_ = c.RangeSum(q[:d], q[d:])
	}
}

// minMaxSink keeps the benchmarked build from being optimized away.
var minMaxSink *MinMaxIndex

// BenchmarkBuildMinMax builds the startup handle's two min/max indexes
// (l_extendedprice over l_shipdate and over l_suppkey) on a 300k-row
// TPCD-Skew table.
func BenchmarkBuildMinMax(b *testing.B) {
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: 300000, Seed: 42})
	for _, dim := range []string{"l_shipdate", "l_suppkey"} {
		b.Run(dim, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := BuildMinMax(tbl, "l_extendedprice", dim)
				if err != nil {
					b.Fatal(err)
				}
				minMaxSink = m
			}
		})
	}
}
