package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Pending returns the number of live events still queued.
func (s *Simulation) Pending() int {
	n := 0
	for _, it := range s.queue {
		if !it.dead {
			n++
		}
	}
	return n
}

// MustAfter is After for the tests' constant, non-negative delays; it
// panics on error.
func (s *Simulation) MustAfter(delay time.Duration, fn Event) Handle {
	h, err := s.After(delay, fn)
	if err != nil {
		panic(err)
	}
	return h
}

func TestRunOrdersEventsByTime(t *testing.T) {
	s := New()
	var got []int
	for i, d := range []time.Duration{30, 10, 20} {
		i := i
		if _, err := s.At(d*time.Millisecond, func(time.Duration) { got = append(got, i) }); err != nil {
			t.Fatalf("At: %v", err)
		}
	}
	s.Run(0)
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantIsFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := s.At(time.Second, func(time.Duration) { got = append(got, i) }); err != nil {
			t.Fatalf("At: %v", err)
		}
	}
	s.Run(0)
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-instant events not FIFO: %v", got)
	}
}

func TestSchedulingInThePastFails(t *testing.T) {
	s := New()
	s.MustAfter(time.Second, func(time.Duration) {})
	s.Run(0)
	if _, err := s.At(0, func(time.Duration) {}); err == nil {
		t.Fatal("At(0) after clock advanced should fail")
	}
	if _, err := s.After(-time.Second, func(time.Duration) {}); err == nil {
		t.Fatal("negative After should fail")
	}
}

func TestNilEventFails(t *testing.T) {
	s := New()
	if _, err := s.At(0, nil); err == nil {
		t.Fatal("nil event should fail")
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	h := s.MustAfter(time.Second, func(time.Duration) { fired = true })
	if !h.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if h.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	s.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestHorizonStopsClock(t *testing.T) {
	s := New()
	fired := false
	s.MustAfter(10*time.Second, func(time.Duration) { fired = true })
	s.Run(3 * time.Second)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if got := s.Now(); got != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", got)
	}
}

func TestEvery(t *testing.T) {
	s := New()
	var ticks []time.Duration
	h, err := s.Every(time.Second, 2*time.Second, func(now time.Duration) {
		ticks = append(ticks, now)
		if len(ticks) == 3 {
			// Cancel from inside the tick: no further ticks may fire.
			return
		}
	})
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	s.MustAfter(5500*time.Millisecond, func(time.Duration) { h.Cancel() })
	s.Run(0)
	want := []time.Duration{time.Second, 3 * time.Second, 5 * time.Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestEveryRejectsBadPeriod(t *testing.T) {
	s := New()
	if _, err := s.Every(0, 0, func(time.Duration) {}); err == nil {
		t.Fatal("zero period should fail")
	}
}

// TestRandomScheduleIsNonDecreasing is a property test: under an arbitrary
// schedule of future events (including events scheduled from inside events),
// observed firing times never decrease.
func TestRandomScheduleIsNonDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		s := New()
		var times []time.Duration
		var spawn func(now time.Duration)
		budget := 200
		spawn = func(now time.Duration) {
			times = append(times, now)
			if budget <= 0 {
				return
			}
			budget--
			d := time.Duration(rng.Intn(1000)) * time.Millisecond
			s.MustAfter(d, spawn)
		}
		for i := 0; i < 5; i++ {
			s.MustAfter(time.Duration(rng.Intn(100))*time.Millisecond, spawn)
		}
		s.Run(0)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				t.Fatalf("trial %d: time went backwards: %v after %v", trial, times[i], times[i-1])
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("trial %d: %d events still pending after Run", trial, s.Pending())
		}
	}
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.MustAfter(time.Duration(i)*time.Millisecond, func(time.Duration) {})
	}
	h := s.MustAfter(time.Millisecond, func(time.Duration) {})
	h.Cancel()
	s.Run(0)
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

func TestHorizonPreservesFutureEvents(t *testing.T) {
	s := New()
	fired := false
	s.MustAfter(10*time.Second, func(time.Duration) { fired = true })
	s.Run(3 * time.Second)
	if fired {
		t.Fatal("event fired early")
	}
	// The event must survive the early horizon and fire on a later Run.
	s.Run(0)
	if !fired {
		t.Fatal("event beyond an early horizon was lost")
	}
}

func TestAdvanceTo(t *testing.T) {
	s := New()
	n := 0
	s.MustAfter(time.Second, func(time.Duration) { n++ })
	if err := s.AdvanceTo(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatal("due event did not fire")
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s even with an empty queue", s.Now())
	}
	if err := s.AdvanceTo(time.Second); err == nil {
		t.Fatal("advancing into the past should fail")
	}
}

func TestOnEventObserver(t *testing.T) {
	s := New()
	var events []time.Duration
	s.OnEvent(func(now time.Duration) { events = append(events, now) })
	fired := 0
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if _, err := s.At(at, func(time.Duration) { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(2500 * time.Millisecond)
	if len(events) != 2 || events[0] != time.Second || events[1] != 2*time.Second {
		t.Fatalf("observer saw %v, want [1s 2s]", events)
	}
	// A later Run drives the observer over the rest of the queue.
	s.Run(0)
	if fired != 3 {
		t.Fatalf("fired %d events, want 3", fired)
	}
	if len(events) != 3 || events[2] != 3*time.Second {
		t.Fatalf("observer saw %v, want the 3s event appended", events)
	}
}

// TestEveryCancelBeforeFirstTick: cancelling an Every before its first tick
// must report true (a firing was prevented), kill the queued tick so it
// neither runs nor burns a fired-event slot, and leave nothing pending.
func TestEveryCancelBeforeFirstTick(t *testing.T) {
	s := New()
	ticks := 0
	h, err := s.Every(time.Second, time.Second, func(time.Duration) { ticks++ })
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	if !h.Cancel() {
		t.Fatal("Cancel before first tick should report true")
	}
	if h.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancel, want 0", s.Pending())
	}
	s.Run(0)
	if ticks != 0 {
		t.Fatalf("cancelled Every ticked %d times", ticks)
	}
	if s.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0: a cancelled chain must not burn events", s.Fired())
	}
}

// TestEveryCancelBetweenTicks: after some ticks have run, Cancel still
// reports true while a future tick is queued, and the queued tick dies.
func TestEveryCancelBetweenTicks(t *testing.T) {
	s := New()
	ticks := 0
	h, err := s.Every(time.Second, time.Second, func(time.Duration) { ticks++ })
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	s.MustAfter(2500*time.Millisecond, func(time.Duration) {
		if !h.Cancel() {
			t.Error("Cancel with a queued tick should report true")
		}
	})
	s.Run(10 * time.Second)
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2", ticks)
	}
	// 2 ticks + the cancelling event; the killed 3s tick must not count.
	if s.Fired() != 3 {
		t.Fatalf("Fired() = %d, want 3", s.Fired())
	}
}

// TestEveryCancelDuringTick: a tick cancelling its own chain prevents the
// reschedule, so that Cancel reports true; a later Cancel reports false.
func TestEveryCancelDuringTick(t *testing.T) {
	s := New()
	var h Handle
	ticks := 0
	h, err := s.Every(time.Second, time.Second, func(time.Duration) {
		ticks++
		if !h.Cancel() {
			t.Error("self-Cancel during the tick should report true")
		}
	})
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	s.Run(0)
	if ticks != 1 {
		t.Fatalf("ticks = %d, want 1", ticks)
	}
	if h.Cancel() {
		t.Fatal("Cancel after a self-cancelled chain should report false")
	}
}

// TestEveryCancelAfterPanic: a panicking callback breaks the chain — no
// tick is queued and none will ever fire again, so Cancel must report
// false, not pretend it stopped anything.
func TestEveryCancelAfterPanic(t *testing.T) {
	s := New()
	h, err := s.Every(time.Second, time.Second, func(time.Duration) {
		panic("tick exploded")
	})
	if err != nil {
		t.Fatalf("Every: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the tick panic to propagate")
			}
		}()
		s.Run(0)
	}()
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after panic, want 0", s.Pending())
	}
	if h.Cancel() {
		t.Fatal("Cancel after the chain broke should report false")
	}
}
