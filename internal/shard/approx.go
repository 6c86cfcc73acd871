package shard

import (
	"context"
	"fmt"
	"math"
	"sort"

	"aqppp/internal/aqp"
	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/ident"
	"aqppp/internal/stats"
)

// aqpEstimate builds an estimate literal (merge code constructs many).
func aqpEstimate(v, hw, conf float64, rows int) aqp.Estimate {
	return aqp.Estimate{Value: v, HalfWidth: hw, Confidence: conf, SampleRows: rows}
}

// Prepared holds per-shard AQP++ state: each non-empty shard owns its
// own sample, identification subsample and BP-cube slice, built in
// parallel by Prepare. Procs is index-aligned with S.Shards (nil for
// empty shards).
type Prepared struct {
	S     *Sharded
	Procs []*core.Processor
	// BuildStats is per-shard preprocessing cost, index-aligned.
	BuildStats []core.BuildStats
	// Confidence is the CI level every shard was built with.
	Confidence float64
}

// Prepare builds the per-shard processors under a bounded pool. The
// config's cell budget is split evenly across shards (each slice gets
// at least one cell), and each shard draws randomness from its own
// seeded stream (cfg.Seed advanced by shard index), so samples are
// independent across shards — the condition the stratified variance
// composition needs. cfg.PrebuiltSample cannot be used here: a global
// sample's rows span shards.
func Prepare(ctx context.Context, s *Sharded, cfg core.BuildConfig, workers int) (*Prepared, error) {
	if cfg.PrebuiltSample != nil {
		return nil, fmt.Errorf("shard: PrebuiltSample is not supported for sharded prepare (each shard draws its own)")
	}
	conf := cfg.Confidence
	if conf == 0 {
		conf = 0.95
	}
	n := len(s.Shards)
	p := &Prepared{
		S:          s,
		Procs:      make([]*core.Processor, n),
		BuildStats: make([]core.BuildStats, n),
		Confidence: conf,
	}
	errs := make([]error, n)
	forEach(ctx, workers, n, func(h int) {
		if s.Shards[h].Rows == 0 {
			return // empty shard: no sample to draw, contributes zero
		}
		shCfg := PerShardConfig(cfg, h, n)
		proc, st, err := core.Build(ctx, s.Shards[h].Table, shCfg)
		if err != nil {
			errs[h] = fmt.Errorf("shard %d: %w", h, err)
			return
		}
		p.Procs[h], p.BuildStats[h] = proc, st
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// SampleSize returns the total sample rows across shards.
func (p *Prepared) SampleSize() int {
	n := 0
	for _, proc := range p.Procs {
		if proc != nil {
			n += proc.Sample.Size()
		}
	}
	return n
}

// group builds the shared fan-out/merge engine over this preparation's
// shards and processors. Pruned and empty shards contribute nothing —
// for SUM/COUNT their true contribution is exactly zero, so pruning
// tightens the interval as well as the latency.
func (p *Prepared) group(workers int) *Group {
	return p.S.group(p.Procs, p.Confidence, workers)
}

// mergeAdditive composes per-shard answers for an additive aggregate
// (SUM/COUNT): point estimates add; since shards are disjoint strata
// with independent samples, variances add too, so the merged half-width
// is λ·sqrt(Σ_h (hw_h/λ)²) — the per-stratum composition of
// internal/aqp's stratified estimate with a shard as the stratum. PreValue
// adds (each shard anchors its own slice); Pre reports the first
// shard's non-φ identification for diagnostics.
func mergeAdditive(answers []core.Answer, conf float64) core.Answer {
	lambda := stats.ZScore(conf)
	merged := core.Answer{Pre: ident.Pre{Phi: true}}
	varSum := 0.0
	for _, a := range answers {
		merged.Estimate.Value += a.Estimate.Value
		w := a.Estimate.HalfWidth / lambda
		varSum += w * w
		merged.Estimate.SampleRows += a.Estimate.SampleRows
		merged.Candidates += a.Candidates
		merged.PreValue += a.PreValue
		if merged.Pre.IsPhi() && !a.Pre.IsPhi() {
			merged.Pre = a.Pre
		}
	}
	merged.Estimate.HalfWidth = lambda * math.Sqrt(varSum)
	merged.Estimate.Confidence = conf
	return merged
}

// Answer answers a scalar query across shards. SUM and COUNT merge
// additively with composed variance; AVG is answered as merged-SUM over
// merged-COUNT with a conservative interval (hw_S + |r|·hw_C)/|C|, an
// upper bound on the delta-method width since cross-terms are dropped;
// MIN/MAX fold per-shard exact index answers.
func (p *Prepared) Answer(ctx context.Context, q engine.Query, workers int) (core.Answer, error) {
	return p.group(workers).Answer(ctx, q)
}

// ratioAnswer forms AVG = SUM/COUNT from two merged answers. The
// half-width (|hw_S| + |r|·hw_C)/|C| bounds the linearized interval:
// |d(S/C)| <= (|dS| + |r||dC|)/|C|.
func ratioAnswer(sumAns, cntAns core.Answer, conf float64) core.Answer {
	if cntAns.Estimate.Value == 0 {
		return core.Answer{
			Estimate: aqpEstimate(0, 0, conf, sumAns.Estimate.SampleRows),
			Pre:      sumAns.Pre,
		}
	}
	r := sumAns.Estimate.Value / cntAns.Estimate.Value
	c := math.Abs(cntAns.Estimate.Value)
	hw := (sumAns.Estimate.HalfWidth + math.Abs(r)*cntAns.Estimate.HalfWidth) / c
	return core.Answer{
		Estimate:   aqpEstimate(r, hw, conf, sumAns.Estimate.SampleRows),
		Pre:        sumAns.Pre,
		PreValue:   sumAns.PreValue,
		Candidates: sumAns.Candidates + cntAns.Candidates,
	}
}

// AnswerGroups answers a GROUP BY query across shards: each shard
// answers the groups its sample observed, and per-key answers merge
// with the same stratified composition as scalars. AVG groups merge as
// the ratio of merged SUM and COUNT group answers. Output is sorted by
// key (rows are redistributed across shards, so a global first-seen
// order does not exist).
func (p *Prepared) AnswerGroups(ctx context.Context, q engine.Query, workers int) ([]core.GroupAnswer, error) {
	return p.group(workers).AnswerGroups(ctx, q)
}

// mergeGroupAnswers merges per-shard group answers by key (additive
// aggregates only), sorted by key.
func mergeGroupAnswers(perShard [][]core.GroupAnswer, conf float64) []core.GroupAnswer {
	byKey := make(map[string][]core.Answer)
	keys := make([]string, 0, 16)
	for _, groups := range perShard {
		for _, g := range groups {
			if _, ok := byKey[g.Key]; !ok {
				keys = append(keys, g.Key)
			}
			byKey[g.Key] = append(byKey[g.Key], g.Answer)
		}
	}
	sort.Strings(keys)
	out := make([]core.GroupAnswer, 0, len(keys))
	for _, key := range keys {
		out = append(out, core.GroupAnswer{Key: key, Answer: mergeAdditive(byKey[key], conf)})
	}
	return out
}

// AnswerBootstrap answers SUM/COUNT with per-shard empirical bootstrap
// intervals: every shard resamples its own sample under an independent
// seeded stream (seed advanced by shard index, so shard replicates
// never correlate), and the per-shard percentile half-widths compose as
// independent variances: hw = sqrt(Σ hw_h²). Points add exactly like
// the closed-form path.
func (p *Prepared) AnswerBootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64, workers int) (core.Answer, error) {
	return p.group(workers).AnswerBootstrap(ctx, q, resamples, seed)
}
