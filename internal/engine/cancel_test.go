package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

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
// scan paths with context.Canceled and leaks no goroutines.
func TestCancelExecutePreCanceled(t *testing.T) {
	base := runtime.NumGoroutine()
	tbl := parallelFixture(20000)
	q := Query{Func: Sum, Col: "v", Ranges: []Range{{Col: "k", Lo: 100, Hi: 900}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tbl.Execute(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecuteContext err = %v, want context.Canceled", err)
	}
	if _, err := tbl.ExecuteParallel(ctx, q, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecuteParallelContext err = %v, want context.Canceled", err)
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
	if _, err := tbl.ExecuteParallel(ctx, q, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("parallel group-by err = %v, want context.Canceled", err)
	}
}

// TestCancelExecuteParallelMidFlight cancels while workers are scanning
// a table large enough that the scan cannot finish first, and checks
// the call unwinds promptly (the per-block stop flag, not the full
// scan) without leaking worker goroutines.
func TestCancelExecuteParallelMidFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	tbl := parallelFixture(2_000_000)
	q := Query{Func: Sum, Col: "v", Ranges: []Range{{Col: "k", Lo: 100, Hi: 900}}}
	// Warm derived caches so the timed run measures only the scan.
	if _, err := tbl.ExecuteParallel(context.Background(), q, 4); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	start := time.Now()
	_, err := tbl.ExecuteParallel(ctx, q, 4)
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

// TestCancelExecuteSerialMidFlight does the same for the serial path.
func TestCancelExecuteSerialMidFlight(t *testing.T) {
	tbl := parallelFixture(2_000_000)
	q := Query{Func: Sum, Col: "v", Ranges: []Range{{Col: "k", Lo: 100, Hi: 900}}}
	if _, err := tbl.Execute(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	if _, err := tbl.Execute(ctx, q); err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want nil or context.Canceled", err)
	}
}

// TestCancelBackgroundUnaffected: a scan under an armed but never
// canceled watcher returns what the background-context fast path (the
// stop flag stays nil) returns.
func TestCancelBackgroundUnaffected(t *testing.T) {
	tbl := parallelFixture(50000)
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
