package dataset

import (
	"context"
	"fmt"
	"os"
	"strings"

	"aqppp/internal/engine"
)

// Load resolves the resident table-source flags the CLIs share: a CSV
// file (the table is named after the file), or one of the demo
// generators at the given scale and seed. Store containers (-data) are
// opened by the caller through aqppp.DB.OpenStore.
func Load(ctx context.Context, csvPath, demo string, rows int, seed uint64) (*engine.Table, error) {
	switch {
	case csvPath != "":
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }() // read-only
		base := csvPath
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		base = strings.TrimSuffix(base, ".csv")
		return engine.ReadCSV(ctx, base, f)
	case demo == "tpcd":
		return TPCDSkew(TPCDConfig{Rows: rows, Seed: seed}), nil
	case demo == "bigbench":
		return BigBenchUserVisits(BigBenchConfig{Rows: rows, Seed: seed}), nil
	case demo == "tlctrip":
		return TLCTrip(TLCTripConfig{Rows: rows, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("need one of -data, -csv, or -demo")
	}
}
