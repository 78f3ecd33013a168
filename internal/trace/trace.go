// Package trace is the observability substrate of the repository: a
// deterministic, virtual-time-stamped structured event journal. Every
// event carries the simulation clock's reading — never the wall clock —
// so two replays of the same seed produce byte-identical journals, and
// the package is a member of applelint's deterministic set (simclock).
//
// The model is a flat event stream with an optional span overlay:
// instrumentation points Emit single events (a tag allocation, a
// failover activation) or Begin/End a span (a batch install, an LP
// solve). Events land in a bounded ring buffer; when it fills, the
// oldest events are dropped and counted, so a recorder can run inside a
// long experiment without growing without bound.
//
// A nil *Recorder is a valid, disabled recorder: every method is a
// no-op, and none of the emit paths allocate, so instrumented hot paths
// cost nothing when tracing is off (pinned by TestDisabledRecorderZeroAlloc).
package trace

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Clock is the virtual time source — satisfied by *sim.Simulation.
type Clock interface {
	Now() time.Duration
}

// Kind names an event type. Kinds are namespaced by subsystem:
// flow.* for the controller's flow-setup pipeline, failover.* for the
// Dynamic Handler's transactional failover, vnf.* for orchestrator
// lifecycle callbacks, and lp.* for Optimization Engine solves.
type Kind string

// Class-install pipeline events (controller admit/emit/apply/verify
// stages). Every entry point — InstallPlacement, AddClass, AddClassBatch,
// ReOptimize adds — journals one run of the pipeline the same way: per
// class in arrival order flow.admit with its flow.place/flow.tag, then
// one flow.emit per class, then one flow.apply per device table touched,
// then, when verification is on, one flow.verify per class.
const (
	// KindFlowAdmit: a class passed the sequential admit stage.
	// Val is its sub-class count.
	KindFlowAdmit Kind = "flow.admit"
	// KindFlowPlace: instance Inst at switch Node was assigned to
	// (sub-class Sub, chain position Pos) of the class.
	KindFlowPlace Kind = "flow.place"
	// KindFlowTag: sub-class Sub was assigned data-plane tag Val.
	KindFlowTag Kind = "flow.tag"
	// KindFlowEmit: the class compiled into Val staged rule operations.
	KindFlowEmit Kind = "flow.emit"
	// KindFlowApply: one pipeline run installed Val rules into one table
	// of the device at switch Node, in a single critical section. It
	// carries no class: the classes of a run share their tables. Emitted
	// in first-touch order once every table of the run is programmed.
	KindFlowApply Kind = "flow.apply"
	// KindFlowVerify: the enforcement probe for the class ran.
	KindFlowVerify Kind = "flow.verify"
	// KindFlowBatch spans one AddClassBatch pipeline run (begin Val:
	// classes in; end Val: rules installed).
	KindFlowBatch Kind = "flow.batch"
)

// Dynamic Handler failover events.
const (
	// KindFailoverSpawn: a failover instance Inst was requested at
	// switch Node for (sub-class Sub, position Pos); Val is 1 for a
	// full launch, 0 for a ClickOS reconfiguration.
	KindFailoverSpawn Kind = "failover.spawn"
	// KindFailoverActivate: the staged sub-class Sub committed, served
	// by Inst.
	KindFailoverActivate Kind = "failover.activate"
	// KindFailoverStale: an activation arrived after its epoch rolled
	// back and was dropped.
	KindFailoverStale Kind = "failover.stale"
	// KindFailoverUnwind: a partially committed activation was fully
	// unwound (rules, tags, arrays, pool, accounting).
	KindFailoverUnwind Kind = "failover.unwind"
	// KindFailoverSpawnFail: a spawn's provisioning or activation
	// failed outright (Err says why).
	KindFailoverSpawnFail Kind = "failover.spawn_fail"
	// KindFailoverSpawnAbort: the provisioning was aborted (instance
	// cancelled or crashed before it came up).
	KindFailoverSpawnAbort Kind = "failover.spawn_abort"
	// KindFailoverRepin: overload traffic was re-pinned onto existing
	// instances for (sub-class Sub, position Pos).
	KindFailoverRepin Kind = "failover.repin"
	// KindFailoverRollback: the class recovered; Val sub-classes beyond
	// base were dropped.
	KindFailoverRollback Kind = "failover.rollback"
	// KindFailoverZombie: a cancel RPC was lost; Inst holds its cores
	// until a retry lands.
	KindFailoverZombie Kind = "failover.zombie"
	// KindFailoverReap: a retried cancel reclaimed zombie Inst.
	KindFailoverReap Kind = "failover.reap"
)

// Orchestrator VNF lifecycle events.
const (
	// KindVNFLaunch: a boot was scheduled for Inst at Node; Val is the
	// boot delay in nanoseconds.
	KindVNFLaunch Kind = "vnf.launch"
	// KindVNFBoot: the boot completed and Inst is Running.
	KindVNFBoot Kind = "vnf.boot"
	// KindVNFBootFail: the boot pipeline died; the VM never came up.
	KindVNFBootFail Kind = "vnf.boot_fail"
	// KindVNFAbort: the instance was cancelled or crashed before its
	// lifecycle callback fired.
	KindVNFAbort Kind = "vnf.abort"
	// KindVNFReconfigure: a ClickOS reconfiguration window opened.
	KindVNFReconfigure Kind = "vnf.reconfigure"
	// KindVNFReconfDone: the reconfiguration took effect.
	KindVNFReconfDone Kind = "vnf.reconf_done"
	// KindVNFReconfFail: the reconfiguration failed; the instance
	// reverted to its previous NF type.
	KindVNFReconfFail Kind = "vnf.reconf_fail"
	// KindVNFCancel: the instance was stopped and its resources freed.
	KindVNFCancel Kind = "vnf.cancel"
	// KindVNFCancelFail: the cancel RPC was lost (retryable).
	KindVNFCancelFail Kind = "vnf.cancel_fail"
	// KindVNFCrash: the instance was lost to a host crash.
	KindVNFCrash Kind = "vnf.crash"
	// KindVNFPlace: the instance was provisioned synchronously
	// (proactive placement).
	KindVNFPlace Kind = "vnf.place"
)

// Optimization Engine events.
const (
	// KindLPSolve spans one Engine.Solve call; the end event's Val is
	// the total simplex pivot count across the cold solve and repairs.
	KindLPSolve Kind = "lp.solve"
	// KindLPResolve: one warm-started repair re-solve; Val is its pivot
	// count, Err is set when the repair bound made the model infeasible.
	KindLPResolve Kind = "lp.resolve"
)

// Rule-transaction and re-optimization events.
const (
	// KindTxnBegin: a RuleTxn opened, exactly once before its txn.commit
	// or txn.unwind; Val is the number of staged class operations.
	KindTxnBegin Kind = "txn.begin"
	// KindTxnCommit: the transaction committed; Val is the number of
	// rules installed across every table it touched.
	KindTxnCommit Kind = "txn.commit"
	// KindTxnUnwind: the transaction failed and was rolled back; Val is
	// the number of flow tables restored to their pre-transaction
	// images, Err the failure that triggered the unwind.
	KindTxnUnwind Kind = "txn.unwind"
	// KindReoptSnapshot: one ReOptimize pass over a traffic snapshot
	// committed; Val is the number of classes whose rules changed.
	KindReoptSnapshot Kind = "reopt.snapshot"
)

// Phase distinguishes the two events of a span.
type Phase string

// Span phases.
const (
	PhaseBegin Phase = "begin"
	PhaseEnd   Phase = "end"
)

// NoID is the value of Class, Sub, Pos, and Node when the dimension does
// not apply to an event.
const NoID = -1

// Event is one journal record. The zero value is not meaningful — build
// events with Ev so the identifier fields default to NoID rather than 0
// (0 is a real class ID, sub-class index, and switch ID).
type Event struct {
	// Seq is the emission sequence number, total-ordered per recorder.
	Seq uint64 `json:"seq"`
	// At is the virtual time of emission.
	At time.Duration `json:"at"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Span links the begin and end events of one span (0 for plain
	// events); Phase says which side this record is.
	Span  uint64 `json:"span,omitempty"`
	Phase Phase  `json:"phase,omitempty"`
	// Class, Sub, Pos, and Node identify the flow dimension: traffic
	// class, sub-class index, chain position, and switch. NoID where
	// not applicable.
	Class int64 `json:"class"`
	Sub   int   `json:"sub"`
	Pos   int   `json:"pos"`
	Node  int64 `json:"node"`
	// Inst is the VNF instance involved, when any.
	Inst string `json:"inst,omitempty"`
	// Val is the event's scalar payload (documented per Kind).
	Val int64 `json:"val,omitempty"`
	// Err is the error message for failure events.
	Err string `json:"err,omitempty"`
}

// Ev starts an event of the given kind with every identifier dimension
// set to NoID. Chain the With* setters to fill in what applies; the
// whole chain is value-typed and allocation-free.
func Ev(kind Kind) Event {
	return Event{Kind: kind, Class: NoID, Sub: NoID, Pos: NoID, Node: NoID}
}

// WithClass sets the traffic-class ID.
func (e Event) WithClass(id int64) Event { e.Class = id; return e }

// WithSub sets the sub-class index.
func (e Event) WithSub(s int) Event { e.Sub = s; return e }

// WithPos sets the chain position.
func (e Event) WithPos(j int) Event { e.Pos = j; return e }

// WithNode sets the switch.
func (e Event) WithNode(n int64) Event { e.Node = n; return e }

// WithInst sets the VNF instance.
func (e Event) WithInst(id string) Event { e.Inst = id; return e }

// WithVal sets the scalar payload.
func (e Event) WithVal(v int64) Event { e.Val = v; return e }

// WithErr records err's message; a nil err leaves the event unchanged.
func (e Event) WithErr(err error) Event {
	if err != nil {
		e.Err = err.Error()
	}
	return e
}

// DefaultCapacity is the ring size used when NewRecorder is given 0.
const DefaultCapacity = 1 << 16

// Recorder is a bounded, thread-safe journal of Events stamped with
// virtual time. Methods on a nil *Recorder are no-ops, so callers hold
// an always-valid handle and pay nothing when tracing is disabled.
//
// Emit may be called from worker goroutines (the ring is mutex-guarded),
// but deterministic journals require deterministic emission order, so
// the instrumented subsystems emit only from the simulation loop or from
// pipeline coordinators — never inside parallel workers.
type Recorder struct {
	clock Clock
	max   int

	mu      sync.Mutex
	buf     []Event // guarded by mu
	next    int     // guarded by mu; ring write index once buf is full
	seq     uint64  // guarded by mu
	spans   uint64  // guarded by mu
	dropped uint64  // guarded by mu
}

// NewRecorder creates a recorder reading virtual time from clock, with a
// ring buffer of the given capacity (0 means DefaultCapacity).
func NewRecorder(clock Clock, capacity int) (*Recorder, error) {
	if clock == nil {
		return nil, errors.New("trace: nil clock")
	}
	if capacity < 0 {
		return nil, fmt.Errorf("trace: negative capacity %d", capacity)
	}
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{clock: clock, max: capacity}, nil
}

// Enabled reports whether events are being recorded. It is the guard
// instrumentation sites use around event-construction loops.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit stamps ev with the current virtual time and a sequence number and
// appends it to the ring, evicting the oldest event if the ring is full.
// On a nil recorder it is a no-op and does not allocate.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	// Read the clock before taking the lock: the virtual clock only
	// advances on the simulation loop, so this cannot reorder times.
	ev.At = r.clock.Now()
	r.mu.Lock()
	ev.Seq = r.seq
	r.seq++
	if len(r.buf) < r.max {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next++
		if r.next == r.max {
			r.next = 0
		}
		r.dropped++
	}
	r.mu.Unlock()
}

// Span tracks an in-flight Begin so the matching End carries the same
// span ID, kind, and class. The zero Span (from a nil recorder) is a
// valid no-op.
type Span struct {
	r     *Recorder
	id    uint64
	kind  Kind
	class int64
}

// Begin emits ev as the begin side of a new span and returns the Span
// whose End emits the matching end event.
func (r *Recorder) Begin(ev Event) Span {
	if r == nil {
		return Span{}
	}
	r.mu.Lock()
	r.spans++
	id := r.spans
	r.mu.Unlock()
	ev.Span = id
	ev.Phase = PhaseBegin
	r.Emit(ev)
	return Span{r: r, id: id, kind: ev.Kind, class: ev.Class}
}

// End emits the end event of the span with the given result value and
// error (nil for success).
func (s Span) End(val int64, err error) {
	if s.r == nil {
		return
	}
	ev := Ev(s.kind).WithClass(s.class).WithVal(val).WithErr(err)
	ev.Span = s.id
	ev.Phase = PhaseEnd
	s.r.Emit(ev)
}

// Events returns the retained events in emission order (oldest first).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever emitted, including dropped.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped returns the number of events evicted by the ring bound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
