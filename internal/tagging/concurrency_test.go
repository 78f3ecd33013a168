package tagging

import (
	"sync"
	"testing"

	"github.com/apple-nfv/apple/internal/topology"
)

// TestAllocatorConcurrentHostTags: the flow-setup pipeline shares one
// allocator between its workers. Goroutines racing over the same switches,
// each in its own order, must all see one tag per switch, distinct across
// switches, and together filling 1..n without a gap.
func TestAllocatorConcurrentHostTags(t *testing.T) {
	const workers, switches = 8, 500
	a := NewAllocator()
	got := make([][]uint16, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]uint16, switches)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < switches; i++ {
				// 7 is coprime to 500, so every worker visits every switch.
				v := (7*i + 13*w) % switches
				tag, err := a.HostTag(topology.NodeID(v))
				if err != nil {
					t.Error(err)
					return
				}
				got[w][v] = tag
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	owner := make(map[uint16]int, switches)
	for v := 0; v < switches; v++ {
		tag := got[0][v]
		for w := 1; w < workers; w++ {
			if got[w][v] != tag {
				t.Fatalf("switch %d: worker 0 saw tag %d, worker %d saw %d", v, tag, w, got[w][v])
			}
		}
		if tag < 1 || tag > switches {
			t.Fatalf("switch %d got tag %d, outside 1..%d", v, tag, switches)
		}
		if prev, ok := owner[tag]; ok {
			t.Fatalf("tag %d handed to switches %d and %d", tag, prev, v)
		}
		owner[tag] = v
	}
}
