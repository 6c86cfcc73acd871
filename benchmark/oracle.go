package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"aqppp/internal/engine"
)

// floatTolerance is the relative difference allowed between a served
// exact answer over a float measure and the oracle's: sharded and
// distributed scans fold the same rows in a different association, and
// the response travels as decimal JSON. Integer measures must match
// bit for bit.
const floatTolerance = 1e-9

// oracle is the served table regenerated in the harness's own memory;
// every answer is checked against a scan of it.
type oracle struct {
	tbl *engine.Table
}

// truth scans the oracle table for q's exact answer.
func (o *oracle) truth(ctx context.Context, q engine.Query) (float64, error) {
	res, err := o.tbl.ExecuteContext(ctx, q)
	if err != nil {
		return 0, err
	}
	return res.Value, nil
}

// integerMeasure reports whether q's exact answer is an integer the
// server must reproduce exactly.
func (o *oracle) integerMeasure(q engine.Query) bool {
	if q.Func == engine.Count {
		return true
	}
	if q.Func != engine.Sum {
		return false
	}
	col, err := o.tbl.Column(q.Col)
	return err == nil && col.Type == engine.Int64
}

// check returns "" when one response is correct, else what is wrong
// with it: a failed request, an exact answer that differs from the
// oracle's (want), or an approximate answer without its interval.
func (o *oracle) check(r *result, want float64) string {
	if r.Err != "" {
		return r.Err
	}
	if r.Req.Path == "/v1/query" {
		got := r.Answer.Value
		if o.integerMeasure(r.Req.Query) {
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Sprintf("exact answer %v, oracle %v (integer measure must match bit for bit)", got, want)
			}
			return ""
		}
		if diff := math.Abs(got - want); diff > floatTolerance*math.Abs(want) {
			return fmt.Sprintf("exact answer %v, oracle %v (relative difference %.3g)", got, want, diff/math.Abs(want))
		}
		return ""
	}
	if r.Answer.Confidence == nil {
		return "approximate answer carries no confidence"
	}
	if len(r.Req.Query.GroupBy) > 0 {
		if len(r.Answer.Groups) == 0 {
			return "group-by answer carries no groups"
		}
		for _, g := range r.Answer.Groups {
			if g.HalfWidth == nil {
				return fmt.Sprintf("group %q carries no half_width", g.Key)
			}
		}
		return ""
	}
	if r.Answer.HalfWidth == nil {
		return "approximate answer carries no half_width"
	}
	return ""
}

// truths scans the oracle table once per distinct statement among the
// chosen results, on all cores. The key is the request body: equal
// bodies are equal statements (the repeat pool sends a few statements
// thousands of times).
func (o *oracle) truths(ctx context.Context, results []result, want func(*result) bool) (map[string]float64, error) {
	var bodies []string
	queries := make(map[string]engine.Query)
	for i := range results {
		r := &results[i]
		if !want(r) {
			continue
		}
		body := string(r.Req.Body)
		if _, seen := queries[body]; !seen {
			queries[body] = r.Req.Query
			bodies = append(bodies, body)
		}
	}
	vals := make([]float64, len(bodies))
	errs := make([]error, len(bodies))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bodies); i += workers {
				vals[i], errs[i] = o.truth(ctx, queries[bodies[i]])
			}
		}(w)
	}
	wg.Wait()
	out := make(map[string]float64, len(bodies))
	for i, b := range bodies {
		if errs[i] != nil {
			return nil, fmt.Errorf("oracle: %w", errs[i])
		}
		out[b] = vals[i]
	}
	return out, nil
}

// verify checks every result and returns how many failed, with the
// first few reasons.
func (o *oracle) verify(ctx context.Context, results []result) (failed int, reasons []string, err error) {
	exact, err := o.truths(ctx, results, func(r *result) bool { return r.Err == "" && r.Req.Path == "/v1/query" })
	if err != nil {
		return 0, nil, err
	}
	for i := range results {
		r := &results[i]
		m := o.check(r, exact[string(r.Req.Body)])
		if m == "" {
			continue
		}
		failed++
		if len(reasons) < 5 {
			reasons = append(reasons, fmt.Sprintf("request %d (%s %s): %s", r.Req.Index, r.Req.Class, r.Req.Body, m))
		}
	}
	return failed, reasons, nil
}

// quality is the answer-quality summary of the quality pass.
type quality struct {
	MedianRelError  float64
	RelHalfWidthP50 float64
	Coverage        float64
	N               int
}

// measureQuality compares approximate answers with the truth: the
// paper's median relative error, the median relative half-width, and
// the share of intervals that contain the truth. Failed requests are
// skipped (verify has already counted them).
func (o *oracle) measureQuality(ctx context.Context, results []result) (quality, error) {
	usable := func(r *result) bool { return r.Err == "" && r.Answer.HalfWidth != nil }
	truths, err := o.truths(ctx, results, usable)
	if err != nil {
		return quality{}, err
	}
	var relErr, relHW sample
	covered := 0
	for i := range results {
		r := &results[i]
		truth := truths[string(r.Req.Body)]
		if !usable(r) || truth == 0 || r.Answer.Value == 0 {
			continue
		}
		dev := math.Abs(r.Answer.Value - truth)
		relErr.add(dev / math.Abs(truth))
		relHW.add(*r.Answer.HalfWidth / math.Abs(r.Answer.Value))
		if dev <= *r.Answer.HalfWidth {
			covered++
		}
	}
	if relErr.n() == 0 {
		return quality{}, fmt.Errorf("quality pass: no usable approximate answer out of %d", len(results))
	}
	return quality{
		MedianRelError:  relErr.median(),
		RelHalfWidthP50: relHW.median(),
		Coverage:        float64(covered) / float64(relErr.n()),
		N:               relErr.n(),
	}, nil
}
