package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/apple-nfv/apple/internal/metrics"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark from outside the layer. Parent is the index of the span that
// caused it (-1 for a root) and Op ties together the spans of one
// workload operation.
type span struct {
	Name   string
	Start  int64 // ns since the tracer's origin
	End    int64
	Parent int32
	Op     int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end are then a nil check and nothing more, so
// the same workload code serves both runs. A tracer is confined to one
// goroutine; readers get their own (fork) and are merged in afterwards.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// fork returns an empty tracer on the same time origin, for another
// goroutine.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{t0: t.t0}
}

func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// call records f as one span and passes its error through.
func (t *tracer) call(name string, parent int32, op int64, f func() error) error {
	id := t.begin(name, parent, op)
	err := f()
	t.end(id)
	return err
}

// adopt appends another goroutine's spans; its roots hang under parent.
func (t *tracer) adopt(o *tracer, parent int32) {
	if t == nil || o == nil {
		return
	}
	base := int32(len(t.spans))
	for _, s := range o.spans {
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other (spans adopted from concurrent readers do), so the covered part
// is the length of the union of the child intervals clipped to the
// parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	durNs  []float64
	selfNs float64
}

func aggregate(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := make(map[string]*spanStats)
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.durNs = append(st.durNs, float64(s.End-s.Start))
		st.selfNs += float64(self[i])
	}
	return out
}

// layerOf is the package a span name belongs to: the part before the
// first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// writeJSONL writes one JSON object per span.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op_id\":%d}\n",
			s.Name, s.Start, s.End, s.Parent, s.Op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counts is the subset of the process-wide metrics.LP / FlowSetup / Txn /
// Reopt counters the per-layer metrics are built from. They are global,
// so the workloads read them at operation boundaries and add up deltas:
// work done between operations (the untimed twin controller of
// diurnal_reopt, audits) is then not attributed to any layer.
type counts [numCounts]int64

const (
	cWarmHits = iota
	cWarmMisses
	cP1Pivots
	cP2Pivots
	cDualPivots
	cP1Nanos
	cP2Nanos
	cStagedRules
	cInstalledRules
	cSkippedRules
	cTableCompiles
	cTableContention
	cTxnCommitted
	cTxnUnwound
	cRulesTouched
	cClassesUpdated
	cClassesRateOnly
	cClassesUnchanged
	numCounts
)

func readCounts() counts {
	return counts{
		cWarmHits:         metrics.LP.WarmHits.Load(),
		cWarmMisses:       metrics.LP.WarmMisses.Load(),
		cP1Pivots:         metrics.LP.Phase1Pivots.Load(),
		cP2Pivots:         metrics.LP.Phase2Pivots.Load(),
		cDualPivots:       metrics.LP.DualPivots.Load(),
		cP1Nanos:          metrics.LP.Phase1Nanos.Load(),
		cP2Nanos:          metrics.LP.Phase2Nanos.Load(),
		cStagedRules:      metrics.FlowSetup.StagedRules.Load(),
		cInstalledRules:   metrics.FlowSetup.InstalledRules.Load(),
		cSkippedRules:     metrics.FlowSetup.SkippedRules.Load(),
		cTableCompiles:    metrics.FlowSetup.TableCompiles.Load(),
		cTableContention:  metrics.FlowSetup.TableContention.Load(),
		cTxnCommitted:     metrics.Txn.Committed.Load(),
		cTxnUnwound:       metrics.Txn.Unwound.Load(),
		cRulesTouched:     metrics.Reopt.RulesTouched.Load(),
		cClassesUpdated:   metrics.Reopt.ClassesUpdated.Load(),
		cClassesRateOnly:  metrics.Reopt.ClassesRateOnly.Load(),
		cClassesUnchanged: metrics.Reopt.ClassesUnchanged.Load(),
	}
}

// addDelta accumulates after−before.
func (c *counts) addDelta(after, before counts) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}

// allocMeter attributes heap allocations to one kind of call by reading
// runtime.MemStats around a sample of the calls. ReadMemStats stops the
// world, so it is used only on millisecond-scale calls, only in the
// traced run, and only while no other goroutine of the benchmark runs
// (the numbers would include the other goroutine's allocations).
type allocMeter struct {
	seen, calls             int
	bytes, objs             uint64
	sampling                bool
	bytesBefore, objsBefore uint64
}

// allocEvery is the sampling stride of an allocMeter.
const allocEvery = 4

// when returns the meter if on, and otherwise nil, on which begin and end
// do nothing.
func (a *allocMeter) when(on bool) *allocMeter {
	if on {
		return a
	}
	return nil
}

func (a *allocMeter) begin() {
	if a == nil {
		return
	}
	a.seen++
	if a.sampling = a.seen%allocEvery == 0; a.sampling {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		a.bytesBefore, a.objsBefore = ms.TotalAlloc, ms.Mallocs
	}
}

func (a *allocMeter) end() {
	if a == nil || !a.sampling {
		return
	}
	a.sampling = false
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.calls++
	a.bytes += ms.TotalAlloc - a.bytesBefore
	a.objs += ms.Mallocs - a.objsBefore
}

func (a *allocMeter) perOp() (allocs, bytes float64) {
	return ratio(float64(a.objs), float64(a.calls)), ratio(float64(a.bytes), float64(a.calls))
}
