package metrics

import (
	"sync"
	"testing"
)

// TestCountersConcurrent hammers one Counters set from writer and reader
// goroutines at once. Under `go test -race` this proves the mutex covers
// every access path — the data race the unlocked version exposed when
// DynamicHandler callbacks incremented while an experiment reporter
// snapshotted.
func TestCountersConcurrent(t *testing.T) {
	const (
		writers = 8
		perG    = 2000
	)
	c := NewCounters()
	var wg sync.WaitGroup
	names := []string{"spawns", "activations", "rollbacks", "zombies"}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc(names[(g+i)%len(names)])
				if i%64 == 0 {
					c.Add("bulk", 2)
				}
			}
		}(g)
	}
	// Concurrent readers exercise Get, Snapshot, and String while
	// the writers run.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_ = c.Get("spawns")
				_ = c.Snapshot()
				_ = c.String()
			}
		}()
	}
	wg.Wait()
	var total uint64
	for _, v := range c.Snapshot() {
		total += v
	}
	bulkHits := (perG + 63) / 64 // i%64==0 hits per writer
	want := uint64(writers*perG) + uint64(writers*bulkHits)*2
	if total != want {
		t.Fatalf("lost updates: total=%d, want %d", total, want)
	}
}
