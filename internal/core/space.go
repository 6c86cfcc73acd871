package core

import (
	"context"
	"fmt"
	"time"

	"aqppp/internal/engine"
)

// SpacePlan is the outcome of dividing a byte budget between the sample
// and the BP-Cube (Appendix C, "Space Allocation").
type SpacePlan struct {
	// SampleRows / SampleBytes describe the sample share.
	SampleRows  int
	SampleBytes int64
	// CubeCells / CubeBytes describe the cube share.
	CubeCells int
	CubeBytes int64
	// EstimatedResponse is the predicted per-query scan time at the
	// chosen sample size.
	EstimatedResponse time.Duration
}

// PlanSpace follows the paper's heuristic: sample size dominates query
// response time while cube size does not, so pick the largest sample that
// still meets the response-time target, then spend the remaining bytes on
// BP-Cube cells (8 bytes each). The per-row scan cost is measured by
// probing an actual filtered aggregation over a slice of the table.
func PlanSpace(tbl *engine.Table, totalBytes int64, responseTarget time.Duration) (SpacePlan, error) {
	if totalBytes <= 0 {
		return SpacePlan{}, fmt.Errorf("core: byte budget %d", totalBytes)
	}
	n := tbl.NumRows()
	if n == 0 {
		return SpacePlan{}, fmt.Errorf("core: empty table")
	}
	bytesPerRow := tbl.SizeBytes() / int64(n)
	if bytesPerRow < 1 {
		bytesPerRow = 1
	}
	nsPerRow := probeScanCost(tbl)

	maxRowsByTime := int(responseTarget.Nanoseconds() / maxI64(nsPerRow, 1))
	maxRowsBySpace := int(totalBytes / bytesPerRow)
	rows := maxRowsByTime
	if rows > maxRowsBySpace {
		rows = maxRowsBySpace
	}
	if rows > n {
		rows = n
	}
	if rows < 1 {
		rows = 1
	}
	plan := SpacePlan{
		SampleRows:        rows,
		SampleBytes:       int64(rows) * bytesPerRow,
		EstimatedResponse: time.Duration(int64(rows) * nsPerRow),
	}
	remaining := totalBytes - plan.SampleBytes
	if remaining > 0 {
		plan.CubeCells = int(remaining / 8)
		plan.CubeBytes = int64(plan.CubeCells) * 8
	}
	return plan, nil
}

// probeScanCost measures the per-row cost of a filtered SUM over a probe
// prefix of the table.
func probeScanCost(tbl *engine.Table) int64 {
	probe := tbl.NumRows()
	if probe > 20000 {
		probe = 20000
	}
	idx := make([]int, probe)
	for i := range idx {
		idx[i] = i
	}
	sub := tbl.Gather("probe", idx)
	var col *engine.Column
	for _, c := range sub.Columns {
		if c.Type != engine.String {
			col = c
			break
		}
	}
	if col == nil {
		col = sub.Columns[0]
	}
	lo, hi := col.OrdinalDomain()
	q := engine.Query{Func: engine.Count, Ranges: []engine.Range{{Col: col.Name, Lo: lo, Hi: (lo + hi) / 2}}}
	// Warm once, then time a few runs. PlanSpace's signature carries no
	// context, and a probe over at most a few blocks needs none.
	ctx := context.TODO()
	if _, err := sub.Execute(ctx, q); err != nil {
		return 1
	}
	const runs = 5
	start := time.Now()
	for i := 0; i < runs; i++ {
		if _, err := sub.Execute(ctx, q); err != nil {
			return 1
		}
	}
	total := time.Since(start).Nanoseconds() / runs
	per := total / int64(probe)
	if per < 1 {
		per = 1
	}
	return per
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
