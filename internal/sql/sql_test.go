package sql

import (
	"context"
	"math"
	"testing"

	"aqppp/internal/engine"
)

func testTable() *engine.Table {
	return engine.MustNewTable("sales",
		engine.NewIntColumn("id", []int64{1, 2, 3, 4, 5, 6}),
		engine.NewFloatColumn("amount", []float64{10, 20, 30, 40, 50, 60}),
		engine.NewStringColumn("region", []string{"west", "east", "west", "north", "east", "south"}),
	)
}

func mustExec(t *testing.T, stmt string) float64 {
	t.Helper()
	tbl := testTable()
	q, err := ParseAndCompile(stmt, tbl)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	res, err := tbl.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res.Value
}

func TestParseBasic(t *testing.T) {
	st, err := Parse("SELECT SUM(amount) FROM sales WHERE id BETWEEN 2 AND 4")
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg != engine.Sum || st.Col != "amount" || st.Table != "sales" {
		t.Errorf("parsed %+v", st)
	}
	if len(st.Conds) != 1 || st.Conds[0].Op != "between" {
		t.Errorf("conds = %+v", st.Conds)
	}
}

// endToEndCases are statements over testTable with their exact
// answers; FuzzParseSQL seeds its corpus with them and with the two
// error lists below.
var endToEndCases = []struct {
	stmt string
	want float64
}{
	{"SELECT SUM(amount) FROM sales", 210},
	{"SELECT COUNT(*) FROM sales", 6},
	{"SELECT AVG(amount) FROM sales", 35},
	{"SELECT MIN(amount) FROM sales", 10},
	{"SELECT MAX(amount) FROM sales", 60},
	{"SELECT SUM(amount) FROM sales WHERE id BETWEEN 2 AND 4", 90},
	{"SELECT SUM(amount) FROM sales WHERE id >= 5", 110},
	{"SELECT SUM(amount) FROM sales WHERE id > 5", 60},
	{"SELECT SUM(amount) FROM sales WHERE id <= 2", 30},
	{"SELECT SUM(amount) FROM sales WHERE id < 2", 10},
	{"SELECT SUM(amount) FROM sales WHERE id = 3", 30},
	{"SELECT SUM(amount) FROM sales WHERE id >= 2 AND id <= 3", 50},
	{"SELECT SUM(amount) FROM sales WHERE region = 'west'", 40},
	{"SELECT SUM(amount) FROM sales WHERE region = 'nowhere'", 0},
	{"SELECT SUM(amount) FROM sales WHERE amount > 35 AND id < 6", 90},
	{"SELECT COUNT(amount) FROM sales WHERE region >= 'south'", 3},
	{"SELECT SUM(amount) FROM sales WHERE amount BETWEEN 15 AND 45", 90},
}

func TestEndToEndQueries(t *testing.T) {
	for _, c := range endToEndCases {
		if got := mustExec(t, c.stmt); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.stmt, got, c.want)
		}
	}
}

func TestGroupByCompile(t *testing.T) {
	tbl := testTable()
	q, err := ParseAndCompile("SELECT SUM(amount) FROM sales GROUP BY region", tbl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 4 {
		t.Errorf("groups = %+v", res.Groups)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	if got := mustExec(t, "select sum(amount) from sales where id between 1 and 2"); got != 30 {
		t.Errorf("lowercase query = %v", got)
	}
}

func TestStringEscapes(t *testing.T) {
	tbl := engine.MustNewTable("t",
		engine.NewStringColumn("s", []string{"it's", "plain"}),
		engine.NewFloatColumn("v", []float64{1, 2}),
	)
	q, err := ParseAndCompile("SELECT SUM(v) FROM t WHERE s = 'it''s'", tbl)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := tbl.Execute(context.Background(), q)
	if res.Value != 1 {
		t.Errorf("escaped string matched %v", res.Value)
	}
}

func TestNegativeNumbers(t *testing.T) {
	tbl := engine.MustNewTable("t",
		engine.NewIntColumn("x", []int64{-5, -1, 0, 3}),
		engine.NewFloatColumn("v", []float64{1, 2, 4, 8}),
	)
	q, err := ParseAndCompile("SELECT SUM(v) FROM t WHERE x >= -1 AND x <= 0", tbl)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := tbl.Execute(context.Background(), q)
	if res.Value != 6 {
		t.Errorf("negative bounds sum = %v", res.Value)
	}
}

// badParses are statements Parse must refuse.
var badParses = []string{
	"",
	"SELECT",
	"SELECT FOO(a) FROM t",
	"SELECT SUM(*) FROM t",
	"SELECT SUM(a FROM t",
	"SELECT SUM(a) WHERE x = 1",
	"SELECT SUM(a) FROM t WHERE",
	"SELECT SUM(a) FROM t WHERE x",
	"SELECT SUM(a) FROM t WHERE x ** 1",
	"SELECT SUM(a) FROM t WHERE x BETWEEN 1",
	"SELECT SUM(a) FROM t WHERE x BETWEEN 1 OR 2",
	"SELECT SUM(a) FROM t GROUP",
	"SELECT SUM(a) FROM t GROUP BY",
	"SELECT SUM(a) FROM t trailing junk",
	"SELECT SUM(a) FROM t WHERE s = 'unterminated",
}

func TestParseErrors(t *testing.T) {
	for _, stmt := range badParses {
		if _, err := Parse(stmt); err == nil {
			t.Errorf("accepted: %s", stmt)
		}
	}
}

// badCompiles are statements that parse but Compile must refuse
// against testTable.
var badCompiles = []string{
	"SELECT SUM(nope) FROM sales",
	"SELECT SUM(amount) FROM wrongtable",
	"SELECT SUM(amount) FROM sales WHERE nope = 1",
	"SELECT SUM(amount) FROM sales WHERE region = 5",
	"SELECT SUM(amount) FROM sales WHERE id = 'x'",
	"SELECT SUM(amount) FROM sales GROUP BY nope",
}

func TestCompileErrors(t *testing.T) {
	tbl := testTable()
	for _, stmt := range badCompiles {
		st, err := Parse(stmt)
		if err != nil {
			t.Fatalf("parse failed unexpectedly: %s: %v", stmt, err)
		}
		if _, err := Compile(st, tbl); err == nil {
			t.Errorf("compiled: %s", stmt)
		}
	}
}

func TestStringRangeSemantics(t *testing.T) {
	// region < 'north' selects only 'east'; region > 'north' selects
	// south and west.
	if got := mustExec(t, "SELECT COUNT(*) FROM sales WHERE region < 'north'"); got != 2 {
		t.Errorf("< 'north' count = %v, want 2 (two east rows)", got)
	}
	if got := mustExec(t, "SELECT COUNT(*) FROM sales WHERE region > 'north'"); got != 3 {
		t.Errorf("> 'north' count = %v, want 3", got)
	}
	// Absent literal between dictionary entries.
	if got := mustExec(t, "SELECT COUNT(*) FROM sales WHERE region > 'f'"); got != 4 {
		t.Errorf("> 'f' count = %v, want 4 (all but east)", got)
	}
	if got := mustExec(t, "SELECT COUNT(*) FROM sales WHERE region < 'f'"); got != 2 {
		t.Errorf("< 'f' count = %v, want 2", got)
	}
}

func TestFloatStrictComparison(t *testing.T) {
	if got := mustExec(t, "SELECT COUNT(*) FROM sales WHERE amount > 30"); got != 3 {
		t.Errorf("amount > 30 count = %v", got)
	}
	if got := mustExec(t, "SELECT COUNT(*) FROM sales WHERE amount < 30.5"); got != 3 {
		t.Errorf("amount < 30.5 count = %v", got)
	}
}
