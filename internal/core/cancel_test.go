package core

import (
	"context"
	"errors"
	"testing"

	"aqppp/internal/cube"
	"aqppp/internal/engine"
)

// TestCancelBuild: a pre-canceled context stops the pipeline at the
// first stage boundary.
func TestCancelBuild(t *testing.T) {
	tbl := testTable(2000, 51)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Build(ctx, tbl, BuildConfig{
		Template:   cube.Template{Agg: "a", Dims: []string{"c1"}},
		SampleRate: 0.2, CellBudget: 50,
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Build err = %v, want context.Canceled", err)
	}
}

// TestCancelAnswerPaths: the per-group and per-resample loops honor a
// pre-canceled context. The progressive per-round check lives in
// Prepared.QueryProgressive (root cancel_test).
func TestCancelAnswerPaths(t *testing.T) {
	tbl := testTable(4000, 52)
	p, _, err := Build(context.Background(), tbl, BuildConfig{
		Template:   cube.Template{Agg: "a", Dims: []string{"c1"}},
		SampleRate: 0.2, CellBudget: 50, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gq := engine.Query{Func: engine.Sum, Col: "a", GroupBy: []string{"g"}}
	if _, err := p.AnswerGroups(ctx, gq); !errors.Is(err, context.Canceled) {
		t.Errorf("AnswerGroups err = %v, want context.Canceled", err)
	}
	if _, err := p.AnswerGroupsFast(ctx, gq); !errors.Is(err, context.Canceled) {
		t.Errorf("AnswerGroupsFast err = %v, want context.Canceled", err)
	}
	q := engine.Query{Func: engine.Sum, Col: "a"}
	if _, err := p.AnswerBootstrap(ctx, q, 50, 1, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("AnswerBootstrap err = %v, want context.Canceled", err)
	}
}
