package aqp

import (
	"context"
	"math"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/sample"
)

func TestBootstrapSumAgreesWithClosedForm(t *testing.T) {
	tbl := buildTable(20000, 20)
	q := engine.Query{Func: engine.Sum, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 100, Hi: 500}}}
	s, _ := sample.NewUniform(tbl, 0.05, 21)
	closed, err := EstimateSum(s, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := Bootstrap(context.Background(), s, q, 0.95, 300, 22)
	if err != nil {
		t.Fatal(err)
	}
	if boot.Value != closed.Value {
		t.Errorf("bootstrap point %v != closed form %v", boot.Value, closed.Value)
	}
	// The widths should agree within a modest factor.
	ratio := boot.HalfWidth / closed.HalfWidth
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("bootstrap ε %v vs closed-form ε %v (ratio %v)", boot.HalfWidth, closed.HalfWidth, ratio)
	}
}

func TestBootstrapVar(t *testing.T) {
	tbl := buildTable(20000, 23)
	q := engine.Query{Func: engine.Var, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 1, Hi: 800}}}
	truth, _ := tbl.Execute(context.Background(), q)
	s, _ := sample.NewUniform(tbl, 0.05, 24)
	boot, err := Bootstrap(context.Background(), s, q, 0.95, 200, 25)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(boot.Value-truth.Value) / truth.Value; rel > 0.15 {
		t.Errorf("VAR plug-in off by %v", rel)
	}
	if boot.HalfWidth <= 0 {
		t.Error("VAR bootstrap ε = 0")
	}
}

func TestBootstrapRejectsGroupBy(t *testing.T) {
	tbl := buildTable(100, 26)
	s, _ := sample.NewUniform(tbl, 0.5, 27)
	q := engine.Query{Func: engine.Sum, Col: "v", GroupBy: []string{"g"}}
	if _, err := Bootstrap(context.Background(), s, q, 0.95, 10, 1); err == nil {
		t.Error("GROUP BY accepted")
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	tbl := buildTable(2000, 28)
	s, _ := sample.NewUniform(tbl, 0.1, 29)
	q := engine.Query{Func: engine.Sum, Col: "v"}
	a, _ := Bootstrap(context.Background(), s, q, 0.95, 50, 7)
	b, _ := Bootstrap(context.Background(), s, q, 0.95, 50, 7)
	if a != b {
		t.Errorf("same seed gave %+v and %+v", a, b)
	}
}
