// Package repl implements the interactive shell behind cmd/aqppp-cli:
// line-based command handling over a prepared AQP++ session with
// approximate, sample-only and exact answering modes. It is separated
// from the binary so the command surface is unit-testable.
package repl

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"aqppp"
	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/sql"
)

// Session holds the state one shell operates on.
type Session struct {
	DB       *aqppp.DB
	Table    *engine.Table
	Prepared *aqppp.Prepared
	// Timeout bounds each statement's wall time; 0 means unlimited. A
	// statement that overruns prints a budget/cancel error like any
	// other failure.
	Timeout time.Duration
	// NewContext, when set, supplies the base context for each
	// statement; the CLI wires it to SIGINT so Ctrl-C aborts the running
	// query instead of the shell. Nil means context.Background. The
	// session holds a factory rather than a context so every statement
	// gets a fresh one.
	NewContext func() (context.Context, context.CancelFunc)
	// Contract, when set, answers default-mode statements under an
	// a-priori error bound (QueryWithContract) instead of plain AQP++,
	// printing which strategy served; ".progress" streams also
	// terminate once the contract is met.
	Contract *aqppp.Contract
}

// NewSession wraps an already-prepared database.
func NewSession(db *aqppp.DB, tbl *engine.Table, prep *aqppp.Prepared) *Session {
	return &Session{DB: db, Table: tbl, Prepared: prep}
}

// statementContext builds the context one statement runs under: the
// session's base factory (or Background) bounded by the session
// timeout.
func (s *Session) statementContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if s.NewContext != nil {
		ctx, cancel = s.NewContext()
	}
	if s.Timeout > 0 {
		tctx, tcancel := context.WithTimeout(ctx, s.Timeout)
		base := cancel
		return tctx, func() { tcancel(); base() }
	}
	return ctx, cancel
}

// Run reads commands from r line by line, writing responses to w, until
// EOF or a quit command.
func (s *Session) Run(r io.Reader, w io.Writer) error {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprint(w, "aqppp> ")
	for scanner.Scan() {
		if !s.HandleLine(scanner.Text(), w) {
			return nil
		}
		fmt.Fprint(w, "aqppp> ")
	}
	return scanner.Err()
}

// HandleLine processes one command line; it returns false when the shell
// should exit.
func (s *Session) HandleLine(line string, w io.Writer) bool {
	line = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), ";"))
	switch {
	case line == "":
	case line == ".quit" || line == ".exit":
		return false
	case line == ".help":
		fmt.Fprintln(w, helpText)
	case line == ".schema":
		s.printSchema(w)
	case line == ".stats":
		s.printStats(w)
	case strings.HasPrefix(line, ".exact "):
		printErr(w, s.runExact(w, strings.TrimPrefix(line, ".exact ")))
	case strings.HasPrefix(line, ".aqp "):
		printErr(w, s.runAQP(w, strings.TrimPrefix(line, ".aqp ")))
	case strings.HasPrefix(line, ".progress "):
		printErr(w, s.runProgressive(w, strings.TrimPrefix(line, ".progress ")))
	case strings.HasPrefix(line, "."):
		fmt.Fprintf(w, "unknown command %q; try .help\n", line)
	default:
		printErr(w, s.runApprox(w, line))
	}
	return true
}

// printErr renders a statement failure the way the shell always has;
// the shell keeps going where RunScript stops.
func printErr(w io.Writer, err error) {
	if err != nil {
		fmt.Fprintln(w, "error:", err)
	}
}

// RunScript executes semicolon-separated statements in order, writing
// answers to w, and stops at the first failure, returning it. Statements
// take the same forms the shell accepts (".exact"/".aqp" prefixes,
// ".stats", ".schema"); cmd/aqppp-cli's -e mode folds the returned
// error's kind into its exit code.
func (s *Session) RunScript(script string, w io.Writer) error {
	for _, stmt := range strings.Split(script, ";") {
		stmt = strings.TrimSpace(stmt)
		var err error
		switch {
		case stmt == "":
		case stmt == ".stats":
			s.printStats(w)
		case stmt == ".schema":
			s.printSchema(w)
		case strings.HasPrefix(stmt, ".exact "):
			err = s.runExact(w, strings.TrimPrefix(stmt, ".exact "))
		case strings.HasPrefix(stmt, ".aqp "):
			err = s.runAQP(w, strings.TrimPrefix(stmt, ".aqp "))
		case strings.HasPrefix(stmt, ".progress "):
			err = s.runProgressive(w, strings.TrimPrefix(stmt, ".progress "))
		case strings.HasPrefix(stmt, "."):
			err = fmt.Errorf("unknown command %q", stmt)
		default:
			err = s.runApprox(w, stmt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

const helpText = "SELECT ...;            approximate answer (AQP++; honors -max-rel/abs-error)\n" +
	".aqp SELECT ...;       plain AQP on the same sample\n" +
	".exact SELECT ...;     exact full scan\n" +
	".progress SELECT ...;  stream refining estimates (online aggregation)\n" +
	".stats                 preprocessing statistics\n" +
	".schema                table schema\n" +
	".quit"

func (s *Session) printSchema(w io.Writer) {
	sc := s.Table.Schema()
	for i, n := range sc.Names {
		fmt.Fprintf(w, "  %-24s %v\n", n, sc.Types[i])
	}
}

func (s *Session) printStats(w io.Writer) {
	st := s.Prepared.Stats()
	fmt.Fprintf(w, "  sample: %d rows (%d bytes)\n  cube:   %d cells, shape %v (%d bytes)\n  built in %.2fs\n",
		st.SampleRows, st.SampleBytes, st.CubeCells, st.CubeShape, st.CubeBytes, st.TotalSeconds)
}

func (s *Session) runApprox(w io.Writer, stmt string) error {
	if s.Contract != nil {
		return s.runContract(w, stmt)
	}
	ctx, cancel := s.statementContext()
	defer cancel()
	t0 := time.Now()
	res, err := s.Prepared.Query(ctx, stmt)
	el := time.Since(t0)
	if err != nil {
		return err
	}
	if len(res.Groups) > 0 {
		for _, g := range res.Groups {
			fmt.Fprintf(w, "  %-20s %14.2f ± %-12.2f (pre: %s)\n", g.Key, g.Value, g.HalfWidth, g.Pre)
		}
		fmt.Fprintf(w, "  [%d groups, %v]\n", len(res.Groups), el.Round(time.Microsecond))
		return nil
	}
	fmt.Fprintf(w, "  %14.2f ± %.2f (%.0f%% CI)  pre=%s  [%v]\n",
		res.Value, res.HalfWidth, 100*res.Confidence, res.Pre, el.Round(time.Microsecond))
	return nil
}

func (s *Session) runContract(w io.Writer, stmt string) error {
	ctx, cancel := s.statementContext()
	defer cancel()
	t0 := time.Now()
	res, err := s.Prepared.QueryWithContract(ctx, stmt, *s.Contract)
	el := time.Since(t0)
	if err != nil {
		return err
	}
	esc := ""
	if res.Escalated {
		esc = ", escalated"
	}
	fmt.Fprintf(w, "  %14.2f ± %.2f (%.0f%% CI)  strategy=%s%s  [%v]\n",
		res.Value, res.HalfWidth, 100*res.Confidence, res.Strategy, esc, el.Round(time.Microsecond))
	return nil
}

func (s *Session) runProgressive(w io.Writer, stmt string) error {
	ctx, cancel := s.statementContext()
	defer cancel()
	t0 := time.Now()
	sum, err := s.Prepared.QueryProgressive(ctx, stmt,
		aqppp.ProgressiveOptions{Contract: s.Contract},
		func(r aqppp.ProgressiveRound) error {
			fmt.Fprintf(w, "  round %2d: %14.2f ± %-12.2f (%d rows)\n",
				r.Round, r.Value, r.HalfWidth, r.SampleRows)
			return nil
		})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  [%s after %d rounds, %v]\n",
		sum.Reason, sum.Rounds, time.Since(t0).Round(time.Microsecond))
	return nil
}

func (s *Session) runAQP(w io.Writer, stmt string) error {
	q, err := sql.ParseAndCompile(stmt, s.Table)
	if err != nil {
		return err
	}
	// Plain AQP is the processor with no cube (pre = φ).
	plain := &core.Processor{Sample: s.Prepared.Sample(), Confidence: 0.95}
	t0 := time.Now()
	ans, err := plain.Answer(q)
	el := time.Since(t0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %14.2f ± %.2f (95%% CI, plain AQP)  [%v]\n", ans.Estimate.Value, ans.Estimate.HalfWidth, el.Round(time.Microsecond))
	return nil
}

func (s *Session) runExact(w io.Writer, stmt string) error {
	ctx, cancel := s.statementContext()
	defer cancel()
	t0 := time.Now()
	res, err := s.DB.Exact(ctx, stmt)
	el := time.Since(t0)
	if err != nil {
		return err
	}
	if len(res.Groups) > 0 {
		for _, g := range res.Groups {
			fmt.Fprintf(w, "  %-20s %14.2f (%d rows)\n", g.Key, g.Value, g.Rows)
		}
		fmt.Fprintf(w, "  [%d groups, %v]\n", len(res.Groups), el.Round(time.Microsecond))
		return nil
	}
	fmt.Fprintf(w, "  %14.2f (exact)  [%v]\n", res.Value, el.Round(time.Microsecond))
	return nil
}
