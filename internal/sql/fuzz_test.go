package sql

import (
	"fmt"
	"testing"
)

// FuzzParseSQL: Parse and ParseAndCompile never panic, whatever the
// bytes, and both are deterministic — the same input gives the same
// statement, query or error every time. A statement that compiles also
// parses. The corpus is seeded with every statement this package's
// tests use.
//
//	go test -run '^$' -fuzz FuzzParseSQL -fuzztime 1m ./internal/sql
func FuzzParseSQL(f *testing.F) {
	for _, c := range endToEndCases {
		f.Add(c.stmt)
	}
	for _, stmts := range [][]string{badParses, badCompiles} {
		for _, s := range stmts {
			f.Add(s)
		}
	}
	f.Add("SELECT SUM(a) FROM t WHERE x BETWEEN 1 AND 5 AND y = 'z' GROUP BY g")
	f.Add("select count(*) from sales where region < 'it''s' and amount >= -1.5e3 group by region, id")
	tbl := testTable()
	f.Fuzz(func(t *testing.T, stmt string) {
		st, err := Parse(stmt)
		st2, err2 := Parse(stmt)
		if fmt.Sprintf("%#v %v", st, err) != fmt.Sprintf("%#v %v", st2, err2) {
			t.Fatalf("Parse(%q) not deterministic: %#v (%v), then %#v (%v)", stmt, st, err, st2, err2)
		}
		q, cerr := ParseAndCompile(stmt, tbl)
		q2, cerr2 := ParseAndCompile(stmt, tbl)
		if fmt.Sprintf("%#v %v", q, cerr) != fmt.Sprintf("%#v %v", q2, cerr2) {
			t.Fatalf("ParseAndCompile(%q) not deterministic: %#v (%v), then %#v (%v)", stmt, q, cerr, q2, cerr2)
		}
		if cerr == nil && err != nil {
			t.Fatalf("%q compiled but does not parse: %v", stmt, err)
		}
	})
}
