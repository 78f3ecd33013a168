// Fixture for the guardedfield analyzer: 'guarded by <mu>' fields must
// only be touched with the mutex held (write lock for writes), fields
// 'confined to the simulation loop' must never be touched from spawned
// goroutines, and the annotation itself must name a real sibling mutex.
package guardedfield

import "sync"

type store struct {
	mu   sync.RWMutex
	vals map[string]int // guarded by mu
	hits int            // guarded by mu
}

// get holds the read lock: clean.
func (s *store) get(k string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.vals[k]
}

// put holds the write lock: clean.
func (s *store) put(k string, v int) {
	s.mu.Lock()
	s.vals[k] = v
	s.hits++
	s.mu.Unlock()
}

// bumpLocked is exempt by the Locked-suffix convention: the caller
// already holds mu.
func (s *store) bumpLocked() {
	s.hits++
}

// badGet reads a guarded field with no lock at all.
func (s *store) badGet(k string) int {
	return s.vals[k] // want "store.vals is read without holding s.mu"
}

// badWrite writes a guarded field under only the read lock.
func (s *store) badWrite(k string, v int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.vals[k] = v // want "store.vals is written while s.mu is only read-locked"
}

// newStore initializes guarded fields before the value is published:
// the fresh-local exemption keeps constructors suppression-free.
func newStore() *store {
	st := &store{}
	st.vals = make(map[string]int)
	st.hits = 0
	return st
}

// reopened aliases an object handed in from outside: not fresh, the
// lock requirement stands.
func reopened(s *store) {
	t := s
	t.vals = nil // want "store.vals is written without holding t.mu"
}

type badGuard struct {
	// guarded by lock
	x int // want "does not name a sibling"
}

func (b *badGuard) use() int { return b.x }

type loopState struct {
	seq int // confined to the simulation loop
	// Confined to the simulation loop, written as a sentence.
	ticks int
	// pending is wrapped mid-annotation: it is confined to the simulation
	// loop all the same.
	pending map[int]bool
}

// tick touches confined state from the loop itself: clean.
func (ls *loopState) tick() int {
	ls.seq++
	return ls.seq
}

// leakGoroutine touches confined state from a spawned goroutine.
func leakGoroutine(ls *loopState) {
	go func() {
		ls.seq++ // want "confined to the simulation loop but accessed"
	}()
}

// leakAnnotated reads the capitalised and the wrapped confined fields
// from a spawned goroutine: both annotations count.
func leakAnnotated(ls *loopState) {
	go func() {
		ls.ticks++            // want "loopState.ticks is confined to the simulation loop"
		delete(ls.pending, 0) // want "loopState.pending is confined to the simulation loop"
	}()
}
