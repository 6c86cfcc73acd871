package aqppp

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// raceStmt is the query every registry-race worker runs.
const raceStmt = "SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400"

func racePrepareOptions() PrepareOptions {
	return PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.2, CellBudget: 50, Seed: 4,
	}
}

// TestRegistryRaceStress churns Register/Drop against concurrent
// Prepare/Query/Exact callers under -race. Correctness bar: no data
// race, and every error any caller sees is either the expected
// duplicate-registration complaint or carries the unknown-table kind —
// a mid-churn caller must never get a half-built answer or an
// unclassified failure.
func TestRegistryRaceStress(t *testing.T) {
	db := NewDB()
	tbl := demoTable(500, 21)
	const rounds = 40

	var wg sync.WaitGroup
	var stop atomic.Bool
	okErr := func(op string, err error) {
		if err == nil {
			return
		}
		if strings.Contains(err.Error(), "already registered") {
			return // churner collided with the initial state; expected
		}
		if k := ErrorKindOf(err); k != ErrUnknownTable {
			t.Errorf("%s: kind %v for %v; want unknown-table", op, k, err)
		}
	}

	// Churner: flip the table in and out of the registry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			okErr("register", db.Register(tbl))
			time.Sleep(time.Millisecond)
			db.Drop("demo")
		}
		// Leave it registered so late workers can still succeed.
		okErr("register", db.Register(tbl))
		stop.Store(true)
	}()

	// Preparers: build a handle and immediately query it.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				prep, err := db.Prepare(context.Background(), racePrepareOptions())
				if err != nil {
					okErr("prepare", err)
					continue
				}
				_, err = prep.Query(context.Background(), raceStmt)
				okErr("prepared query", err)
			}
		}()
	}

	// Exact scanners.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				_, err := db.Exact(context.Background(), raceStmt)
				okErr("exact", err)
			}
		}()
	}

	wg.Wait()

	// The registry must come out of the churn fully usable.
	if _, err := db.Exact(context.Background(), raceStmt); err != nil {
		t.Fatalf("exact after churn: %v", err)
	}
	prep, err := db.Prepare(context.Background(), racePrepareOptions())
	if err != nil {
		t.Fatalf("prepare after churn: %v", err)
	}
	if _, err := prep.Query(context.Background(), raceStmt); err != nil {
		t.Fatalf("query after churn: %v", err)
	}
}

// TestDroppedHandlePoisonStickyUnderContention proves poisoning is
// sticky and monotone while queries are in flight: workers hammer one
// handle, the table is dropped and immediately re-registered, and from
// the moment any worker observes the unknown-table error the handle
// must never answer again — re-registering the table does not resurrect
// the old preparation.
func TestDroppedHandlePoisonStickyUnderContention(t *testing.T) {
	db := NewDB()
	tbl := demoTable(500, 22)
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), racePrepareOptions())
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		successes atomic.Int64
		poisoned  atomic.Bool
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				// Poisoning is monotone: if the handle was already
				// observed dead before this query started, it must not
				// answer now.
				wasPoisoned := poisoned.Load()
				_, err := prep.Query(context.Background(), raceStmt)
				if err != nil {
					if ErrorKindOf(err) != ErrUnknownTable {
						t.Errorf("poisoned query kind = %v (%v)", ErrorKindOf(err), err)
					}
					poisoned.Store(true)
					continue
				}
				successes.Add(1)
				if wasPoisoned {
					t.Error("handle answered after poisoning was observed")
				}
			}
		}()
	}

	// Let the handle serve some real answers first.
	deadline := time.Now().Add(5 * time.Second)
	for successes.Load() < 16 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if successes.Load() == 0 {
		stop.Store(true)
		wg.Wait()
		t.Fatal("handle never answered before the drop")
	}

	// Drop mid-flight, then immediately re-register the same table.
	db.Drop("demo")
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}

	// Every worker must converge on the poisoned state.
	for !poisoned.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !poisoned.Load() {
		stop.Store(true)
		wg.Wait()
		t.Fatal("drop never surfaced to the queriers")
	}
	// Keep hammering a little longer; the monotonicity check inside the
	// workers catches any post-poison success.
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Direct stickiness check, single-threaded: still dead.
	if _, err := prep.Query(context.Background(), raceStmt); ErrorKindOf(err) != ErrUnknownTable {
		t.Errorf("stale handle after re-register: kind %v (%v)", ErrorKindOf(err), err)
	}
	// A fresh preparation over the re-registered table works.
	fresh, err := db.Prepare(context.Background(), racePrepareOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Query(context.Background(), raceStmt); err != nil {
		t.Errorf("fresh handle after re-register: %v", err)
	}
}
