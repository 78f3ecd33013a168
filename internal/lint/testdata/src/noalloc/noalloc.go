// Package noalloc exercises the apple:noalloc directive checker: every
// construct that can allocate must be flagged inside an annotated
// function, and the allocation-free vocabulary (arithmetic, indexing,
// allowlisted builtins, sync/atomic, math/bits, calls to other annotated
// functions) must pass untouched.
package noalloc

import (
	"math/bits"
	"sync/atomic"
)

type table struct {
	rules []int
	index map[string]int
	hits  atomic.Int64
}

// hot is the shape of a real data-plane lookup: index reads, comma-ok
// map probes, non-allocating builtins, an atomic counter, a popcount, a
// numeric conversion, and a call to another annotated function. Clean.
//
//apple:noalloc
func (t *table) hot(key string, i int) int {
	t.hits.Add(1)
	if i < len(t.rules) {
		r := &t.rules[i]
		return *r + twice(i)
	}
	if n, ok := t.index[key]; ok {
		return bits.OnesCount64(uint64(n) >> 1)
	}
	return min(i, cap(t.rules))
}

//apple:noalloc
func twice(i int) int { return i * 2 }

// cold carries no directive, so nothing in it is flagged.
func cold(n int) []int {
	out := make([]int, n)
	return append(out, n)
}

//apple:noalloc
func badBuiltins(n int) []int {
	s := make([]int, n) // want "make in noalloc function badBuiltins allocates"
	p := new(int)       // want "new in noalloc function badBuiltins allocates"
	s = append(s, *p)   // want "append in noalloc function badBuiltins may allocate"
	return s
}

//apple:noalloc
func badLiterals() {
	_ = []int{1, 2}        // want "slice literal in noalloc function badLiterals allocates"
	_ = map[string]int{}   // want "map literal in noalloc function badLiterals allocates"
	_ = &table{rules: nil} // want "address of composite literal in noalloc function badLiterals allocates"
	_ = [2]int{3, 4}       // array literal stays on the stack: clean
}

//apple:noalloc
func badStrings(a, b string) string {
	c := a + b           // want "string concatenation in noalloc function badStrings allocates"
	_ = []byte(a)        // want "string conversion in noalloc function badStrings allocates"
	_ = string(rune(65)) // want "string conversion in noalloc function badStrings allocates"
	_ = any(len(b))      // want "conversion to interface in noalloc function badStrings allocates"
	return c
}

//apple:noalloc
func badControl(t *table, k string) {
	go cold(1)     // want "go statement in noalloc function badControl allocates a goroutine"
	defer cold(2)  // want "defer in noalloc function badControl may allocate a defer record"
	f := func() {} // want "function literal in noalloc function badControl allocates a closure"
	f()            // want "dynamic call in noalloc function badControl cannot be proven allocation-free"
	t.index[k] = 1 // want "map write in noalloc function badControl may grow the map"
}

type reader interface{ read() int }

//apple:noalloc
func badCalls(t *table, r reader, g func() int) int {
	n := len(cold(0)) // want "call to cold in noalloc function badCalls; callee is not annotated apple:noalloc"
	n += r.read()     // want "call to read in noalloc function badCalls; callee is not annotated apple:noalloc"
	n += g()          // want "dynamic call in noalloc function badCalls cannot be proven allocation-free"
	return n + twice(n)
}
