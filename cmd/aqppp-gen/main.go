// Command aqppp-gen generates the benchmark datasets and writes them as
// a store container or CSV. It also converts the binary .tbl tables
// earlier versions wrote into store containers.
//
// Usage:
//
//	aqppp-gen -dataset tpcd -rows 1000000 -out lineitem.aqps
//	aqppp-gen -dataset tlctrip -rows 500000 -format csv -out trips.csv
//	aqppp-gen -convert lineitem.tbl lineitem.aqps
//
// Datasets: tpcd (TPCD-Skew lineitem), bigbench (UserVisits), tlctrip
// (NYC yellow-taxi style).
//
// The store format (.aqps) is what aqppp-serve -data and aqppp-cli
// -data map lazily. The row-batch stream earlier versions wrote
// (-format binary, .tbl) is no longer a table source anywhere: it has
// no checksums, no block index, and must be fully materialized to
// load. -convert migrates such files once.
package main

import (
	"flag"
	"fmt"
	"os"

	"aqppp/internal/dataset"
	"aqppp/internal/engine"
	"aqppp/internal/store"
)

func main() {
	name := flag.String("dataset", "tpcd", "tpcd | bigbench | tlctrip")
	rows := flag.Int("rows", 100000, "rows to generate")
	seed := flag.Uint64("seed", 42, "random seed")
	zipf := flag.Float64("zipf", 2, "TPCD-Skew z parameter")
	format := flag.String("format", "store", "store | csv")
	out := flag.String("out", "", "output path (csv defaults to stdout; store format requires a path)")
	convert := flag.Bool("convert", false, "convert an old binary .tbl table to a store container: aqppp-gen -convert <in.tbl> <out.aqps>")
	flag.Parse()

	if *convert {
		os.Exit(runConvert(flag.Args()))
	}

	var tbl *engine.Table
	switch *name {
	case "tpcd":
		tbl = dataset.TPCDSkew(dataset.TPCDConfig{Rows: *rows, Seed: *seed, Zipf: *zipf})
	case "bigbench":
		tbl = dataset.BigBenchUserVisits(dataset.BigBenchConfig{Rows: *rows, Seed: *seed})
	case "tlctrip":
		tbl = dataset.TLCTrip(dataset.TLCTripConfig{Rows: *rows, Seed: *seed})
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *name)
		os.Exit(2)
	}
	if code := write(tbl, *format, *out); code != 0 {
		os.Exit(code)
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d rows, %d columns, ~%d bytes of column data\n",
		tbl.Name, tbl.NumRows(), tbl.NumCols(), tbl.SizeBytes())
}

// write persists tbl in the given format and returns the process exit
// code: 2 for a usage error, 1 for an I/O failure.
func write(tbl *engine.Table, format, out string) int {
	switch format {
	case "store":
		if out == "" {
			fmt.Fprintln(os.Stderr, "-format store writes a seekable container; give it a path with -out")
			return 2
		}
		if err := store.Write(out, tbl, nil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	case "csv":
		if err := writeCSV(tbl, out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", format)
		return 2
	}
}

// writeCSV writes tbl as CSV to the file at out, or to stdout when out
// is empty.
func writeCSV(tbl *engine.Table, out string) error {
	if out == "" {
		return tbl.WriteCSV(os.Stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := tbl.WriteCSV(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// runConvert reads a legacy .tbl table and rewrites it as a store
// container — the one-shot migration off the retired table format.
func runConvert(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: aqppp-gen -convert <in.tbl> <out.aqps>")
		return 2
	}
	in, outPath := args[0], args[1]
	tbl, err := store.ReadLegacyTable(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "read legacy table %s: %v\n", in, err)
		return 1
	}
	if err := store.Write(outPath, tbl, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "converted %s -> %s (%d rows, %d columns)\n",
		in, outPath, tbl.NumRows(), tbl.NumCols())
	return 0
}
