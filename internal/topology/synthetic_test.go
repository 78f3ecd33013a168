package topology

import (
	"fmt"
	"testing"
)

func TestFatTreeValidation(t *testing.T) {
	for _, k := range []int{0, 2, 3, 5, 7} {
		if _, err := FatTree(k); err == nil {
			t.Errorf("FatTree(%d) should fail", k)
		}
	}
}

func TestFatTreeStructure(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		l, err := FatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		half := k / 2
		wantNodes := half*half + k*k
		if got := l.Graph.NumNodes(); got != wantNodes {
			t.Fatalf("FatTree(%d): %d nodes, want %d", k, got, wantNodes)
		}
		// k pods × (k/2)² pod links, plus (k/2)² cores × k uplinks.
		wantLinks := k*half*half + half*half*k
		if got := l.Graph.NumLinks(); got != wantLinks {
			t.Fatalf("FatTree(%d): %d links, want %d", k, got, wantLinks)
		}
		if !l.Graph.Connected() {
			t.Fatalf("FatTree(%d) is disconnected", k)
		}
	}
}

// TestFatTreePathClosedForm: every structural path must be a valid
// connected path in the graph and match the length Dijkstra finds.
func TestFatTreePathClosedForm(t *testing.T) {
	l, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	for srcPod := 0; srcPod < 4; srcPod++ {
		for dstPod := 0; dstPod < 4; dstPod++ {
			for se := 0; se < 2; se++ {
				for de := 0; de < 2; de++ {
					for h := 0; h < 8; h++ {
						p, err := l.Path(srcPod, se, dstPod, de, h)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := l.Graph.PathWeight(p); err != nil {
							t.Fatalf("structural path %v is not connected: %v", p, err)
						}
						sp, err := l.Graph.ShortestPath(p[0], p[len(p)-1])
						if err != nil {
							t.Fatal(err)
						}
						if len(p) != len(sp) {
							t.Fatalf("structural path %v (len %d) is not shortest (Dijkstra len %d)",
								p, len(p), len(sp))
						}
					}
				}
			}
		}
	}
	if _, err := l.Path(4, 0, 0, 0, 0); err == nil {
		t.Fatal("out-of-range pod should fail")
	}
	if _, err := l.Path(0, 2, 0, 0, 0); err == nil {
		t.Fatal("out-of-range edge should fail")
	}
}

func TestFatTreePathSpreadsECMP(t *testing.T) {
	l, err := FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for h := 0; h < 16; h++ {
		p, err := l.Path(0, 0, 3, 1, h)
		if err != nil {
			t.Fatal(err)
		}
		seen[fmt.Sprint(p)] = true
	}
	// k=8 has (k/2)² = 16 distinct core paths between pods.
	if len(seen) != 16 {
		t.Fatalf("16 hash values covered %d distinct paths, want 16", len(seen))
	}
}
