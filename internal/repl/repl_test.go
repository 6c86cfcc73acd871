package repl

import (
	"context"
	"strings"
	"testing"

	"aqppp"
	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

func newTestSession(t *testing.T) *Session {
	t.Helper()
	r := stats.NewRNG(1)
	n := 10000
	k := make([]int64, n)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		k[i] = int64(r.Intn(500) + 1)
		v[i] = 100 + 10*r.NormFloat64()
	}
	tbl := engine.MustNewTable("demo",
		engine.NewIntColumn("k", k),
		engine.NewFloatColumn("v", v),
	)
	db := aqppp.NewDB()
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.1, CellBudget: 20, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(db, tbl, prep)
}

func run(t *testing.T, s *Session, line string) string {
	t.Helper()
	var sb strings.Builder
	s.HandleLine(line, &sb)
	return sb.String()
}

func TestHandleApproxQuery(t *testing.T) {
	s := newTestSession(t)
	out := run(t, s, "SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400;")
	if !strings.Contains(out, "±") || !strings.Contains(out, "pre=") {
		t.Errorf("approx output malformed: %q", out)
	}
}

func TestHandleAQPAndExact(t *testing.T) {
	s := newTestSession(t)
	out := run(t, s, ".aqp SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400")
	if !strings.Contains(out, "plain AQP") {
		t.Errorf("aqp output malformed: %q", out)
	}
	out = run(t, s, ".exact SELECT COUNT(*) FROM demo")
	if !strings.Contains(out, "10000.00 (exact)") {
		t.Errorf("exact output malformed: %q", out)
	}
}

func TestHandleMetaCommands(t *testing.T) {
	s := newTestSession(t)
	if out := run(t, s, ".help"); !strings.Contains(out, ".exact") {
		t.Errorf("help missing: %q", out)
	}
	if out := run(t, s, ".schema"); !strings.Contains(out, "int64") || !strings.Contains(out, "v") {
		t.Errorf("schema missing: %q", out)
	}
	if out := run(t, s, ".stats"); !strings.Contains(out, "sample:") || !strings.Contains(out, "cube:") {
		t.Errorf("stats missing: %q", out)
	}
	if out := run(t, s, ".bogus"); !strings.Contains(out, "unknown command") {
		t.Errorf("unknown-command handling: %q", out)
	}
	if out := run(t, s, "   "); out != "" {
		t.Errorf("blank line produced output: %q", out)
	}
}

func TestHandleErrors(t *testing.T) {
	s := newTestSession(t)
	for _, line := range []string{
		"SELECT garbage",
		".aqp SELECT SUM(nope) FROM demo",
		".exact SELECT SUM(v) FROM othertable",
	} {
		if out := run(t, s, line); !strings.Contains(out, "error:") {
			t.Errorf("%q: expected error, got %q", line, out)
		}
	}
}

func TestRunScript(t *testing.T) {
	s := newTestSession(t)
	var out strings.Builder
	err := s.RunScript("SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400; .exact SELECT COUNT(*) FROM demo; .stats", &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "pre=") || !strings.Contains(text, "(exact)") || !strings.Contains(text, "sample:") {
		t.Errorf("script output malformed: %q", text)
	}

	// The first failure stops the script, carries its taxonomy kind, and
	// later statements never run.
	out.Reset()
	err = s.RunScript("SELECT garbage; .exact SELECT COUNT(*) FROM demo", &out)
	if err == nil {
		t.Fatal("bad statement did not fail the script")
	}
	if k := aqppp.ErrorKindOf(err); k != aqppp.ErrParse {
		t.Errorf("kind = %v, want parse", k)
	}
	if strings.Contains(out.String(), "(exact)") {
		t.Errorf("script kept running past the failure: %q", out.String())
	}

	out.Reset()
	if err := s.RunScript(".bogus", &out); err == nil {
		t.Error("unknown command accepted in script mode")
	}
}

func TestQuit(t *testing.T) {
	s := newTestSession(t)
	var sb strings.Builder
	if s.HandleLine(".quit", &sb) {
		t.Error(".quit did not stop the shell")
	}
	if s.HandleLine(".exit", &sb) {
		t.Error(".exit did not stop the shell")
	}
	if !s.HandleLine("SELECT COUNT(*) FROM demo", &sb) {
		t.Error("normal query stopped the shell")
	}
}

func TestRunLoop(t *testing.T) {
	s := newTestSession(t)
	in := strings.NewReader(".schema\nSELECT COUNT(*) FROM demo;\n.quit\nnever reached\n")
	var out strings.Builder
	if err := s.Run(in, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if strings.Count(text, "aqppp>") != 3 {
		t.Errorf("prompt count = %d: %q", strings.Count(text, "aqppp>"), text)
	}
	if strings.Contains(text, "never reached") {
		t.Error("shell kept reading after quit")
	}
}

func TestGroupByThroughShell(t *testing.T) {
	r := stats.NewRNG(9)
	n := 5000
	k := make([]int64, n)
	v := make([]float64, n)
	g := make([]string, n)
	for i := 0; i < n; i++ {
		k[i] = int64(r.Intn(100) + 1)
		v[i] = 50 + 5*r.NormFloat64()
		if i%2 == 0 {
			g[i] = "x"
		} else {
			g[i] = "y"
		}
	}
	tbl := engine.MustNewTable("demo",
		engine.NewIntColumn("k", k),
		engine.NewFloatColumn("v", v),
		engine.NewStringColumn("g", g),
	)
	db := aqppp.NewDB()
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k", "g"},
		SampleRate: 0.2, CellBudget: 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(db, tbl, prep)
	out := run(t, s, "SELECT SUM(v) FROM demo WHERE k BETWEEN 1 AND 90 GROUP BY g")
	if !strings.Contains(out, "2 groups") {
		t.Errorf("group output malformed: %q", out)
	}
	out = run(t, s, ".exact SELECT SUM(v) FROM demo GROUP BY g")
	if !strings.Contains(out, "2 groups") {
		t.Errorf("exact group output malformed: %q", out)
	}
}
