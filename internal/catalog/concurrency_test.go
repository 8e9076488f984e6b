package catalog

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentReadersAndWriters hammers the catalog from parallel
// goroutines: upserts, deletes, snapshot index queries, and table
// extraction, verifying no data race (run under -race) and that the
// final snapshot index agrees with the store.
func TestConcurrentReadersAndWriters(t *testing.T) {
	c := New()
	for i := 0; i < 50; i++ {
		if err := c.Upsert(feat(fmt.Sprintf("seed-%02d.csv", i), "salinity", "water_temperature")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 6 {
				case 0:
					_ = c.Upsert(feat(fmt.Sprintf("w%d-%03d.csv", w, i), "turbidity"))
				case 1:
					c.Delete(IDForPath(fmt.Sprintf("w%d-%03d.csv", w, i-1)))
				case 2:
					snap := c.Snapshot()
					_ = postedIDs(snap, withVariable, "salinity")
					_ = postedIDs(snap, withParent, "fluorescence")
				case 3:
					if f, ok := c.Get(IDForPath("seed-00.csv")); ok && f.Path != "seed-00.csv" {
						t.Error("corrupted read")
					}
				case 4:
					_ = c.VariableNameCounts()
					_ = c.Len()
				case 5:
					_ = c.ToTable()
				}
			}
		}(w)
	}
	wg.Wait()

	// The 50 seed features must have survived untouched.
	for i := 0; i < 50; i++ {
		id := IDForPath(fmt.Sprintf("seed-%02d.csv", i))
		f, ok := c.Get(id)
		if !ok {
			t.Fatalf("seed feature %d lost", i)
		}
		if len(f.Variables) != 2 {
			t.Fatalf("seed feature %d corrupted: %d variables", i, len(f.Variables))
		}
	}
	// The snapshot index and the store agree: exactly the stored
	// features with a searchable salinity are posted under it.
	var want []string
	for _, f := range c.All() {
		if _, ok := f.Variable("salinity"); ok {
			want = append(want, f.ID)
		}
	}
	if got := postedIDs(c.Snapshot(), withVariable, "salinity"); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot index lists %d salinity datasets, store holds %d", len(got), len(want))
	}
}

// TestConcurrentPublishAndSearchReads interleaves ReplaceAll (publish)
// with read traffic, the working/published handoff under load.
func TestConcurrentPublishAndSearchReads(t *testing.T) {
	published := New()
	_ = published.Upsert(feat("initial.csv", "salinity"))
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			working := New()
			for j := 0; j <= i%5; j++ {
				_ = working.Upsert(feat(fmt.Sprintf("gen%d-%d.csv", i, j), "salinity"))
			}
			published.ReplaceAll(working)
		}
		close(stop)
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// One snapshot is one consistent view: every dataset its
				// index lists resolves in that same snapshot, however
				// many publishes land meanwhile.
				snap := published.Snapshot()
				for _, id := range postedIDs(snap, withVariable, "salinity") {
					if f, ok := snap.ByID(id); !ok || len(f.Variables) == 0 {
						t.Error("snapshot index disagrees with its features during publish")
						return
					}
				}
				_ = published.Generation()
			}
		}()
	}
	wg.Wait()
	if published.Len() == 0 {
		t.Error("final publish lost all features")
	}
}
