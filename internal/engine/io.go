package engine

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ioBatchRows is the cancellation granularity of ReadCSV: one ctx poll
// per this many rows, so a canceled load unwinds within a batch without
// putting a branch on every row's hot path. It matches the engine's
// zone-block size so load and scan share one latency story.
const ioBatchRows = 4096

// WriteCSV writes the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, len(t.Columns))
	for i := 0; i < t.NumRows(); i++ {
		for j, c := range t.Columns {
			rec[j] = c.StringAt(i)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a CSV with a header row into a table, inferring column
// types from the first data row: int64 if it parses as an integer, float64
// if it parses as a float, else string. An empty file yields an error.
// Both the record-reading loop and the per-column parse loops check ctx
// once per row batch (ioBatchRows rows), so a canceled context unwinds a
// large load within one batch. The returned error is ctx.Err() when the
// cancel landed mid-load.
func ReadCSV(ctx context.Context, name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("engine: read CSV header: %w", err)
	}
	var records [][]string
	for {
		if len(records)&(ioBatchRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
	types := make([]ColType, len(header))
	for j := range header {
		types[j] = String
		if len(records) > 0 {
			v := records[0][j]
			if _, err := strconv.ParseInt(v, 10, 64); err == nil {
				types[j] = Int64
			} else if _, err := strconv.ParseFloat(v, 64); err == nil {
				types[j] = Float64
			}
		}
	}
	cols := make([]*Column, len(header))
	for j, h := range header {
		switch types[j] {
		case Int64:
			vals := make([]int64, len(records))
			for i, rec := range records {
				if i&(ioBatchRows-1) == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				v, err := strconv.ParseInt(rec[j], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("engine: row %d column %q: %w", i, h, err)
				}
				vals[i] = v
			}
			cols[j] = NewIntColumn(h, vals)
		case Float64:
			vals := make([]float64, len(records))
			for i, rec := range records {
				if i&(ioBatchRows-1) == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				v, err := strconv.ParseFloat(rec[j], 64)
				if err != nil {
					return nil, fmt.Errorf("engine: row %d column %q: %w", i, h, err)
				}
				vals[i] = v
			}
			cols[j] = NewFloatColumn(h, vals)
		default:
			vals := make([]string, len(records))
			for i, rec := range records {
				vals[i] = rec[j]
			}
			cols[j] = NewStringColumn(h, vals)
		}
	}
	return NewTable(name, cols...)
}
