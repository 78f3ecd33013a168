// Package sim provides a lightweight discrete-event simulation kernel used
// by the APPLE data-plane and orchestration models.
//
// A Simulation owns a virtual clock and a priority queue of timed events.
// Components schedule callbacks at absolute virtual times or after relative
// delays; Run drains the queue in time order. The kernel is deliberately
// single-threaded: determinism matters more than parallelism for the
// experiments in this repository, and it keeps component code free of locks.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
type Event func(now time.Duration)

// item is a scheduled event in the queue. For Every, an unqueued sentinel
// item carries the chain state: next points at the currently queued tick,
// firing is true while fn runs, and dead stops the chain.
type item struct {
	at       time.Duration
	seq      uint64 // tie-breaker: FIFO among events at the same instant
	fn       Event
	idx      int
	dead     bool
	sentinel bool  // Every chain sentinel, never queued
	next     *item // sentinel only: the queued tick item, nil if none
	firing   bool  // sentinel only: fn is on the stack right now
}

// eventQueue implements heap.Interface ordered by (at, seq).
type eventQueue []*item

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}

func (q *eventQueue) Push(x any) {
	it := x.(*item)
	it.idx = len(*q)
	*q = append(*q, it)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.idx = -1
	*q = old[:n-1]
	return it
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct {
	it *item
}

// Cancel marks the event so it will not fire. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether a future firing was
// actually prevented: true for a live one-shot event, or for an Every chain
// with a tick still queued or currently executing. It returns false for a
// second Cancel, for an Every whose callback panicked (the chain is already
// broken, no tick will ever fire again), and for one-shots that already ran.
func (h Handle) Cancel() bool {
	it := h.it
	if it == nil || it.dead {
		return false
	}
	it.dead = true
	if !it.sentinel {
		return true
	}
	// Every sentinel: kill the queued tick too, so the cancelled chain does
	// not burn a fired event (and observer call) on a no-op wakeup.
	live := it.firing
	if it.next != nil && !it.next.dead {
		it.next.dead = true
		live = true
	}
	it.next = nil
	return live
}

// Simulation is a discrete-event simulator with a virtual clock.
//
// The zero value is not usable; construct with New.
type Simulation struct {
	now      time.Duration
	queue    eventQueue
	seq      uint64
	fired    uint64
	observer Event
}

// New returns an empty simulation with the clock at zero.
func New() *Simulation {
	return &Simulation{}
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulation) Fired() uint64 { return s.fired }

// OnEvent registers an observer invoked after every fired event with the
// clock still at that event's time. Passing nil clears it. Harnesses use
// it to assert system invariants between events — e.g. the churn replay
// checks the Dynamic Handler after every boot completion and crash.
func (s *Simulation) OnEvent(fn Event) { s.observer = fn }

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// is an error; scheduling exactly at the current time runs fn later in the
// same instant (FIFO among same-time events).
func (s *Simulation) At(at time.Duration, fn Event) (Handle, error) {
	if fn == nil {
		return Handle{}, errors.New("sim: nil event")
	}
	if at < s.now {
		return Handle{}, fmt.Errorf("sim: schedule at %v before now %v", at, s.now)
	}
	it := &item{at: at, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, it)
	return Handle{it: it}, nil
}

// After schedules fn to run after the given delay from the current time.
// A negative delay is an error.
func (s *Simulation) After(delay time.Duration, fn Event) (Handle, error) {
	if delay < 0 {
		return Handle{}, fmt.Errorf("sim: negative delay %v", delay)
	}
	return s.At(s.now+delay, fn)
}

// Every schedules fn to run periodically starting at start and then every
// period, until the returned Handle is cancelled or the simulation ends.
// fn observes the tick time. Period must be positive.
func (s *Simulation) Every(start, period time.Duration, fn Event) (Handle, error) {
	if period <= 0 {
		return Handle{}, fmt.Errorf("sim: non-positive period %v", period)
	}
	// The periodic handle wraps a forwarding item whose cancellation stops
	// the chain. The sentinel tracks the queued tick (next) and whether fn
	// is currently on the stack (firing), so Cancel can report accurately
	// whether it prevented a future firing and kill the queued tick instead
	// of leaving it to wake up as a no-op.
	sentinel := &item{sentinel: true}
	var tick Event
	tick = func(now time.Duration) {
		sentinel.next = nil
		if sentinel.dead {
			return
		}
		func() {
			sentinel.firing = true
			defer func() { sentinel.firing = false }()
			fn(now)
		}()
		if sentinel.dead {
			return
		}
		h, err := s.After(period, tick)
		if err != nil {
			// Unreachable: period > 0 and now is valid.
			panic(err)
		}
		sentinel.next = h.it
	}
	h, err := s.At(start, tick)
	if err != nil {
		return Handle{}, err
	}
	sentinel.next = h.it
	return Handle{it: sentinel}, nil
}

// Run executes events in time order until the queue drains or the virtual
// clock would pass horizon. A non-positive horizon means no limit.
func (s *Simulation) Run(horizon time.Duration) {
	if horizon <= 0 {
		horizon = time.Duration(math.MaxInt64)
	}
	for len(s.queue) > 0 {
		it := heap.Pop(&s.queue).(*item)
		if it.dead {
			continue
		}
		if it.at > horizon {
			// Leave the clock at the horizon; the event stays queued for
			// a later Run.
			heap.Push(&s.queue, it)
			s.now = horizon
			return
		}
		s.now = it.at
		it.dead = true
		s.fired++
		it.fn(s.now)
		if s.observer != nil {
			s.observer(s.now)
		}
	}
}

// AdvanceTo runs all events up to t and then sets the clock to exactly t,
// even if the queue drained earlier — the stepping primitive snapshot-based
// simulations use between traffic-matrix snapshots.
func (s *Simulation) AdvanceTo(t time.Duration) error {
	if t < s.now {
		return fmt.Errorf("sim: advance to %v before now %v", t, s.now)
	}
	s.Run(t)
	if s.now < t {
		s.now = t
	}
	return nil
}
