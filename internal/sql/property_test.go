package sql

import (
	"context"
	"fmt"
	"math"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// TestRandomStatementsAgreeWithDirectQueries generates random statements
// over a random table, round-trips them through the parser/compiler, and
// checks the result equals executing the equivalent hand-built query.
func TestRandomStatementsAgreeWithDirectQueries(t *testing.T) {
	r := stats.NewRNG(2718)
	n := 3000
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := 0; i < n; i++ {
		ints[i] = int64(r.Intn(100) + 1)
		floats[i] = math.Floor(r.Float64()*1000) / 10
		strs[i] = words[r.Intn(len(words))]
	}
	tbl := engine.MustNewTable("rt",
		engine.NewIntColumn("i", ints),
		engine.NewFloatColumn("f", floats),
		engine.NewStringColumn("s", strs),
	)
	aggs := []struct {
		name string
		fn   engine.AggFunc
	}{{"SUM", engine.Sum}, {"COUNT", engine.Count}, {"AVG", engine.Avg}, {"MIN", engine.Min}, {"MAX", engine.Max}}
	for trial := 0; trial < 120; trial++ {
		agg := aggs[r.Intn(len(aggs))]
		col := "f"
		colSQL := "f"
		if agg.fn == engine.Count {
			colSQL = "*"
		}
		lo := r.Intn(90) + 1
		hi := lo + r.Intn(20)
		word := words[r.Intn(len(words))]
		stmt := fmt.Sprintf("SELECT %s(%s) FROM rt WHERE i BETWEEN %d AND %d AND s >= '%s'",
			agg.name, colSQL, lo, hi, word)
		q, err := ParseAndCompile(stmt, tbl)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		got, err := tbl.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		// Hand-built equivalent: word's rank as the lower string bound.
		rank := 0
		sorted := append([]string(nil), words...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		for i, w := range sorted {
			if w == word {
				rank = i
			}
		}
		direct := engine.Query{Func: agg.fn, Col: col, Ranges: []engine.Range{
			{Col: "i", Lo: float64(lo), Hi: float64(hi)},
			{Col: "s", Lo: float64(rank), Hi: float64(len(words) - 1)},
		}}
		if agg.fn == engine.Count {
			direct.Col = ""
		}
		want, err := tbl.Execute(context.Background(), direct)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Value-want.Value) > 1e-9*math.Max(math.Abs(want.Value), 1) {
			t.Fatalf("%s: compiled %v != direct %v", stmt, got.Value, want.Value)
		}
	}
}

// TestParseIsDeterministic re-parses the same statement and compares the
// structures.
func TestParseIsDeterministic(t *testing.T) {
	stmt := "SELECT SUM(a) FROM t WHERE x BETWEEN 1 AND 5 AND y = 'z' GROUP BY g"
	a, err := Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Error("parse not deterministic")
	}
}

// TestLexerNeverPanics throws byte noise at the lexer; it must error, not
// panic.
func TestLexerNeverPanics(t *testing.T) {
	r := stats.NewRNG(3141)
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(60)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(r.Intn(128))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("lexer panicked on %q: %v", buf, p)
				}
			}()
			_, _ = lex(string(buf))
		}()
	}
}

// TestParserNeverPanics fuzzes the parser with token-shaped noise.
func TestParserNeverPanics(t *testing.T) {
	r := stats.NewRNG(1618)
	words := []string{"SELECT", "SUM", "FROM", "WHERE", "AND", "BETWEEN",
		"GROUP", "BY", "(", ")", ",", "*", "=", "<", ">=", "t", "col", "5", "'s'"}
	for trial := 0; trial < 500; trial++ {
		stmt := ""
		for i := 0; i < r.Intn(12); i++ {
			stmt += words[r.Intn(len(words))] + " "
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("parser panicked on %q: %v", stmt, p)
				}
			}()
			_, _ = Parse(stmt)
		}()
	}
}
