// Package sample implements the three sampling schemes of the paper's
// evaluation — uniform, measure-biased [Ding et al., Sample+Seek], and
// stratified [BlinkDB] — plus the subsampling used by AQP++'s aggregate
// identification step.
//
// A Sample stores the sampled rows as an engine.Table (the paper stores
// its sample into DBX as a table) together with the per-row
// inverse-inclusion-probability weights that the estimators in
// internal/aqp need.
package sample

import (
	"fmt"
	"sort"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// Kind identifies a sampling scheme.
type Kind uint8

const (
	// Uniform samples each row with equal probability.
	Uniform Kind = iota
	// MeasureBiased samples rows with probability proportional to a
	// measure attribute (with replacement).
	MeasureBiased
	// Stratified samples each stratum (group) at its own rate,
	// guaranteeing a minimum number of rows per stratum.
	Stratified
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Uniform:
		return "uniform"
	case MeasureBiased:
		return "measure-biased"
	case Stratified:
		return "stratified"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Stratum describes one group of a stratified sample.
type Stratum struct {
	Key        string
	SourceRows int
	SampleRows int
}

// Sample is a materialized sample of a source table.
type Sample struct {
	Kind       Kind
	Table      *engine.Table
	SourceRows int
	// InvP[i] is 1/p_i, the inverse of sample row i's per-draw inclusion
	// probability: N for uniform rows, T/a_i for measure-biased rows
	// (T = total measure). Nil for stratified samples, which carry their
	// weights in Strata.
	InvP []float64
	// Strata and StratumOf describe a stratified sample's structure:
	// StratumOf[i] is the stratum index of sample row i.
	Strata    []Stratum
	StratumOf []int
}

// Size returns the number of rows in the sample.
func (s *Sample) Size() int { return s.Table.NumRows() }

// Rate returns the effective sampling rate.
func (s *Sample) Rate() float64 {
	if s.SourceRows == 0 {
		return 0
	}
	return float64(s.Size()) / float64(s.SourceRows)
}

// SizeBytes returns the bytes of sample payload, for preprocessing-space
// accounting.
func (s *Sample) SizeBytes() int64 {
	b := s.Table.SizeBytes()
	b += int64(len(s.InvP)) * 8
	b += int64(len(s.StratumOf)) * 8
	return b
}

// NewUniform draws a uniform sample without replacement of size
// round(rate*N) (at least 1 when the table is nonempty). It is
// deterministic given seed.
func NewUniform(tbl *engine.Table, rate float64, seed uint64) (*Sample, error) {
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("sample: uniform rate %v out of (0, 1]", rate)
	}
	n := tbl.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("sample: cannot sample empty table %q", tbl.Name)
	}
	size := int(rate*float64(n) + 0.5)
	if size < 1 {
		size = 1
	}
	if size > n {
		size = n
	}
	r := stats.NewRNG(seed)
	idx := pickDistinct(r, n, size)
	st := tbl.Gather(tbl.Name+"_sample", idx)
	invp := make([]float64, size)
	for i := range invp {
		invp[i] = float64(n)
	}
	return &Sample{Kind: Uniform, Table: st, SourceRows: n, InvP: invp}, nil
}

// pickDistinct returns `size` distinct indices from [0,n) in ascending
// order: the first size positions of a random permutation.
func pickDistinct(r *stats.RNG, n, size int) []int {
	out := NewPermutation(n).Draw(r, size, make([]int, 0, size))
	sort.Ints(out)
	return out
}

// NewMeasureBiased draws size = round(rate*N) rows with replacement, each
// draw selecting row i with probability a_i/T where a_i is the (clamped
// nonnegative) value of measureCol and T its total. Rows with
// a_i <= 0 are never drawn; they contribute nothing to SUM(measure)
// estimates, which is the query class this scheme targets (§7.4).
func NewMeasureBiased(tbl *engine.Table, measureCol string, rate float64, seed uint64) (*Sample, error) {
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("sample: measure-biased rate %v out of (0, 1]", rate)
	}
	c, err := tbl.Column(measureCol)
	if err != nil {
		return nil, err
	}
	n := tbl.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("sample: cannot sample empty table %q", tbl.Name)
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		v := c.Float(i)
		if v > 0 {
			total += v
		}
		cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("sample: measure column %q has no positive mass", measureCol)
	}
	size := int(rate*float64(n) + 0.5)
	if size < 1 {
		size = 1
	}
	r := stats.NewRNG(seed)
	idx := make([]int, size)
	invp := make([]float64, size)
	for d := 0; d < size; d++ {
		u := r.Float64() * total
		i := sort.SearchFloat64s(cum, u)
		if i >= n {
			i = n - 1
		}
		// SearchFloat64s finds the first cum[i] >= u; rows with zero
		// measure have cum[i] == cum[i-1] and are never the first such
		// index for u > cum[i-1], except at exact boundaries; skip ahead
		// to the owning positive-mass row.
		for c.Float(i) <= 0 && i+1 < n {
			i++
		}
		idx[d] = i
		invp[d] = total / c.Float(i)
	}
	st := tbl.Gather(tbl.Name+"_mbsample", idx)
	return &Sample{Kind: MeasureBiased, Table: st, SourceRows: n, InvP: invp}, nil
}

// NewStratified stratifies the table by the group key of stratifyCols and
// samples each stratum uniformly without replacement at rate `rate`, but
// never fewer than minRows rows (or the whole stratum if smaller). This is
// the BlinkDB-style disproportionate allocation of §7.4: small groups are
// fully (or heavily) sampled.
func NewStratified(tbl *engine.Table, stratifyCols []string, rate float64, minRows int, seed uint64) (*Sample, error) {
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("sample: stratified rate %v out of (0, 1]", rate)
	}
	if len(stratifyCols) == 0 {
		return nil, fmt.Errorf("sample: stratified sampling needs at least one column")
	}
	n := tbl.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("sample: cannot sample empty table %q", tbl.Name)
	}
	cols := make([]*engine.Column, len(stratifyCols))
	for i, name := range stratifyCols {
		c, err := tbl.Column(name)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	rowsByKey := make(map[string][]int)
	var keyOrder []string
	for i := 0; i < n; i++ {
		k := engine.GroupKey(cols, i)
		if _, ok := rowsByKey[k]; !ok {
			keyOrder = append(keyOrder, k)
		}
		rowsByKey[k] = append(rowsByKey[k], i)
	}
	r := stats.NewRNG(seed)
	var idx []int
	var strata []Stratum
	var stratumOf []int
	for si, k := range keyOrder {
		rows := rowsByKey[k]
		want := int(rate*float64(len(rows)) + 0.5)
		if want < minRows {
			want = minRows
		}
		if want > len(rows) {
			want = len(rows)
		}
		if want < 1 {
			want = 1
		}
		picked := pickDistinct(r, len(rows), want)
		for _, p := range picked {
			idx = append(idx, rows[p])
			stratumOf = append(stratumOf, si)
		}
		strata = append(strata, Stratum{Key: k, SourceRows: len(rows), SampleRows: want})
	}
	st := tbl.Gather(tbl.Name+"_stsample", idx)
	return &Sample{
		Kind: Stratified, Table: st, SourceRows: n,
		Strata: strata, StratumOf: stratumOf,
	}, nil
}

// Subsample returns a uniform subset of the sample at the given rate (at
// least 2 rows when available), preserving kind, weights and stratum
// structure. AQP++ uses it to score the P⁻ candidates cheaply (§5.2).
func (s *Sample) Subsample(rate float64, seed uint64) *Sample {
	n := s.Size()
	size := int(rate*float64(n) + 0.5)
	if size < 2 {
		size = 2
	}
	if size > n {
		size = n
	}
	r := stats.NewRNG(seed)
	idx := pickDistinct(r, n, size)
	out := &Sample{
		Kind:       s.Kind,
		Table:      s.Table.Gather(s.Table.Name+"_sub", idx),
		SourceRows: s.SourceRows,
	}
	if s.InvP != nil {
		out.InvP = make([]float64, size)
		for i, j := range idx {
			out.InvP[i] = s.InvP[j]
		}
	}
	if s.Strata != nil {
		out.Strata = make([]Stratum, len(s.Strata))
		copy(out.Strata, s.Strata)
		for i := range out.Strata {
			out.Strata[i].SampleRows = 0
		}
		out.StratumOf = make([]int, size)
		for i, j := range idx {
			si := s.StratumOf[j]
			out.StratumOf[i] = si
			out.Strata[si].SampleRows++
		}
	}
	return out
}
