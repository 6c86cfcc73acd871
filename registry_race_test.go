package aqppp

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// raceStmt is the query every registry-race worker runs.
const raceStmt = "SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400"

func racePrepareOptions() PrepareOptions {
	return PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.2, CellBudget: 50, Seed: 4,
	}
}

// raceRegistry runs register(i) for rounds fresh names while workers
// Prepare/Query and Exact the fixed table "demo" and read the registry,
// all under -race. Registrations are permanent, so no caller may see
// any failure, and every fresh name must be resolvable at the end.
func raceRegistry(t *testing.T, db *DB, rounds int, register func(i int) error) {
	t.Helper()
	const workers = 4
	var wg, ready sync.WaitGroup
	var stop atomic.Bool
	ready.Add(workers)
	check := func(op string, err error) {
		if err != nil {
			t.Errorf("%s: %v", op, err)
		}
	}

	// Registrar: once every worker runs, add fresh names, and try (and
	// fail) to re-register the fixed one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		ready.Wait()
		for i := 0; i < rounds; i++ {
			check("register", register(i))
			if err := db.Register(demoTable(10, 1)); err == nil || !strings.Contains(err.Error(), "already registered") {
				t.Errorf("duplicate register of demo: err = %v, want already registered", err)
			}
		}
	}()

	// Half the workers build a handle and immediately query it; the
	// other half scan exactly and read the registry as it grows. Each
	// runs at least once after the registrar starts.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			for done := false; !done; {
				done = stop.Load()
				if w%2 == 0 {
					prep, err := db.Prepare(context.Background(), racePrepareOptions())
					if err != nil {
						check("prepare", err)
						continue
					}
					_, err = prep.Query(context.Background(), raceStmt)
					check("prepared query", err)
					continue
				}
				_, err := db.Exact(context.Background(), raceStmt)
				check("exact", err)
				if _, ok := db.LookupTable("demo"); !ok {
					t.Error("demo vanished from the registry")
				}
				_ = db.TableNames()
			}
		}()
	}

	wg.Wait()
	if got := len(db.TableNames()); got != rounds+1 {
		t.Errorf("%d tables registered, want %d", got, rounds+1)
	}
	for i := 0; i < rounds; i++ {
		if _, err := db.Table(raceName(i)); err != nil {
			t.Errorf("fresh table %d: %v", i, err)
		}
	}
}

// raceName names the i-th table a registry-race registrar adds.
func raceName(i int) string { return fmt.Sprintf("fresh%d", i) }

// TestRegistryRaceStress registers fresh tables against concurrent
// Prepare/Query/Exact callers on a fixed table under -race. Correctness
// bar: no data race and no failure — a registration never disturbs a
// table registered before it.
func TestRegistryRaceStress(t *testing.T) {
	db := NewDB()
	if err := db.Register(demoTable(500, 21)); err != nil {
		t.Fatal(err)
	}
	raceRegistry(t, db, 40, func(i int) error {
		tbl := demoTable(200, uint64(100+i))
		tbl.Name = raceName(i)
		return db.Register(tbl)
	})
}
