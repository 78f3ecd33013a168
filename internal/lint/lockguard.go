package lint

// AnalyzerLockguard reports blocking operations performed while a
// sync.Mutex/RWMutex is held — channel sends and receives, select,
// time.Sleep, sync.WaitGroup.Wait, orchestrator lifecycle calls
// (Launch/ReconfigureIdle/Cancel, which schedule user callbacks), and
// direct calls of function-typed values (user callbacks) — plus
// Lock/Unlock pairing violations: a lock not released on some return
// path, lock state that changes across a loop iteration, and branches
// that disagree about what is held.
//
// The critical sections in this codebase are short, data-only regions
// by design (DESIGN.md §7): the flow-setup pipeline keeps TCAM batches
// as the only lock-holding work, and the orchestrator runs callbacks on
// the simulation loop with no locks at all. lockguard turns that
// discipline into a build break.
var AnalyzerLockguard = &Analyzer{
	Name: "lockguard",
	Doc:  "no blocking operation or user callback while a mutex is held; every Lock paired with an Unlock on all paths",
	Run:  runLockguard,
}

func runLockguard(pass *Pass) {
	facts := pass.lockFactsFor()
	for _, f := range facts {
		for _, b := range f.blocking {
			pass.Reportf(b.pos, "%s", b.msg)
		}
		for _, p := range f.pairing {
			pass.Reportf(p.pos, "%s", p.msg)
		}
	}
}
