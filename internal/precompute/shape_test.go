package precompute

import (
	"context"
	"math"
	"testing"

	"aqppp/internal/stats"
)

func TestBuildProfileMonotone(t *testing.T) {
	v := iidView(800, 20)
	p, err := BuildProfile(context.Background(), v, 100, 6, ClimbConfig{Mode: Global, MaxIterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(p.Es); i++ {
		if p.Es[i] > p.Es[i-1] {
			t.Errorf("profile not monotone at anchor %d", i)
		}
	}
	if p.Ks[0] != 1 {
		t.Errorf("first anchor = %d", p.Ks[0])
	}
	if p.Ks[len(p.Ks)-1] > p.MaxK {
		t.Errorf("last anchor %d beyond MaxK %d", p.Ks[len(p.Ks)-1], p.MaxK)
	}
}

func TestProfileInterpolation(t *testing.T) {
	p := &Profile{Ks: []int{1, 4, 16}, Es: []float64{8, 4, 2}, MaxK: 1000}
	// Exact at anchors.
	for i, k := range p.Ks {
		if got := p.ErrorAt(k); math.Abs(got-p.Es[i]) > 1e-12 {
			t.Errorf("ErrorAt(%d) = %v, want %v", k, got, p.Es[i])
		}
	}
	// Between anchors: monotone and within the bracketing errors.
	if e := p.ErrorAt(8); e >= 4 || e <= 2 {
		t.Errorf("ErrorAt(8) = %v, want in (2, 4)", e)
	}
	// Extrapolation follows 1/√k decay.
	if e := p.ErrorAt(64); math.Abs(e-2*math.Sqrt(16.0/64)) > 1e-9 {
		t.Errorf("ErrorAt(64) = %v", e)
	}
	// At MaxK the error vanishes.
	if e := p.ErrorAt(1000); e != 0 {
		t.Errorf("ErrorAt(MaxK) = %v", e)
	}
	if e := p.ErrorAt(0); e != p.ErrorAt(1) {
		t.Error("k<1 should clamp to 1")
	}
}

func TestProfileKForInvertsErrorAt(t *testing.T) {
	p := &Profile{Ks: []int{1, 4, 16}, Es: []float64{8, 4, 2}, MaxK: 500}
	for _, e := range []float64{8, 5, 4, 3, 2, 1, 0.5} {
		k := p.KFor(e)
		if p.ErrorAt(k) > e+1e-9 {
			t.Errorf("KFor(%v) = %d but ErrorAt = %v", e, k, p.ErrorAt(k))
		}
		if k > 1 && p.ErrorAt(k-1) <= e-1e-9 {
			t.Errorf("KFor(%v) = %d not minimal", e, k)
		}
	}
	if k := p.KFor(0); k != 500 {
		t.Errorf("KFor(0) = %d, want MaxK", k)
	}
}

func TestDetermineShapeRespectsBudget(t *testing.T) {
	p1 := &Profile{Ks: []int{1, 10, 100}, Es: []float64{100, 30, 10}, MaxK: 10000}
	p2 := &Profile{Ks: []int{1, 10, 100}, Es: []float64{50, 15, 5}, MaxK: 10000}
	res, err := DetermineShape([]*Profile{p1, p2}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if prod := res.Ks[0] * res.Ks[1]; prod > 500 {
		t.Errorf("shape %v exceeds budget", res.Ks)
	}
	// The noisier dimension should get at least as many points.
	if res.Ks[0] < res.Ks[1] {
		t.Errorf("shape %v gives fewer points to the noisier dim", res.Ks)
	}
}

func TestDetermineShapeSpendsbudget(t *testing.T) {
	p := &Profile{Ks: []int{1, 4, 16}, Es: []float64{8, 4, 2}, MaxK: 1 << 20}
	res, err := DetermineShape([]*Profile{p, p}, 400)
	if err != nil {
		t.Fatal(err)
	}
	prod := res.Ks[0] * res.Ks[1]
	// Greedy filling should land close to the budget (within one bump).
	if prod < 300 {
		t.Errorf("shape %v underspends budget 400", res.Ks)
	}
}

func TestDetermineShape1D(t *testing.T) {
	p := &Profile{Ks: []int{1, 10}, Es: []float64{10, 3}, MaxK: 50}
	res, err := DetermineShape([]*Profile{p}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ks[0] != 20 {
		t.Errorf("1D shape = %v, want all budget", res.Ks)
	}
}

func TestDetermineShapeCapsAtMaxK(t *testing.T) {
	p := &Profile{Ks: []int{1, 4}, Es: []float64{8, 4}, MaxK: 6}
	res, err := DetermineShape([]*Profile{p}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ks[0] != 6 {
		t.Errorf("shape = %v, want capped at MaxK 6", res.Ks)
	}
	if res.Err != 0 {
		t.Errorf("err at MaxK = %v", res.Err)
	}
}

func TestDetermineShapeValidation(t *testing.T) {
	if _, err := DetermineShape(nil, 10); err == nil {
		t.Error("no profiles accepted")
	}
	p := &Profile{Ks: []int{1}, Es: []float64{1}, MaxK: 5}
	if _, err := DetermineShape([]*Profile{p}, 0); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestDetermineShapeOnRealViews(t *testing.T) {
	// Two dimensions with very different variability: the second carries
	// 10x the noise and should receive more partition points.
	r := stats.NewRNG(33)
	n := 1200
	a1 := make([]float64, n)
	a2 := make([]float64, n)
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		c[i] = float64(i + 1)
		a1[i] = 5 + 0.05*float64(i%7) + 0.2*r.NormFloat64()
		a2[i] = 5 + 30*math.Sin(float64(i)/40) + 10*r.NormFloat64()
	}
	v1 := NewViewFromSlices(a1, c, n*10, 0.95)
	v2 := NewViewFromSlices(a2, c, n*10, 0.95)
	cfg := ClimbConfig{Mode: Global, MaxIterations: 10}
	p1, err := BuildProfile(context.Background(), v1, 200, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildProfile(context.Background(), v2, 200, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetermineShape([]*Profile{p1, p2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ks[0]*res.Ks[1] > 100 {
		t.Errorf("budget exceeded: %v", res.Ks)
	}
	if res.Ks[1] < res.Ks[0] {
		t.Errorf("noisy dim got fewer points: %v", res.Ks)
	}
}
