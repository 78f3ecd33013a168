// Package txnguard reproduces the PR 7 partial-install bug class: state
// mutated on the AddClass/ReOptimize paths without a transaction in
// scope survives an unwind untracked.
package txnguard

// RuleTxn stages rule operations for make-before-break installation.
type RuleTxn struct {
	staged []string
}

func (t *RuleTxn) StageInstall(r string) { t.staged = append(t.staged, r) }

// Controller owns the placement state the transactions stage against.
type Controller struct {
	// txn-owned: mutated only via staged RuleTxn ops
	instPool map[string]int
	// txn-owned: mutated only via staged RuleTxn ops
	assign map[string]string
	epoch  int // plain bookkeeping, not transaction-tracked
}

// AddClass is an online mutation entry point; it holds a transaction
// itself (legal writer) but forgets to hand it to admit — the PR 7
// shape.
func (c *Controller) AddClass(id string, txn *RuleTxn) {
	c.instPool[id] = 1 // legal: a transaction is in scope by parameter
	txn.StageInstall(id)
	c.admit(id)
}

func (c *Controller) admit(id string) {
	c.assign[id] = "s0" // want "Controller.assign is written outside a RuleTxn (reached from entry AddClass"
	c.epoch++           // not txn-owned: unconstrained
}

// ReOptimize writes owned state directly, with no transaction at all.
func (c *Controller) ReOptimize() {
	c.instPool["x"] = 2 // want "Controller.instPool is written outside a RuleTxn (reached from entry ReOptimize"
	c.provision(&RuleTxn{})
}

func (c *Controller) provision(txn *RuleTxn) {
	c.assign["x"] = "s1" // legal: the transaction parameter scopes the write
	txn.StageInstall("x")
}

// InstallPlacement is policed like the online entry points: pooling a
// provisioned instance with no transaction in scope is the untracked
// proactive install this rule exists to keep out.
func (c *Controller) InstallPlacement() {
	c.poolAdd("y")
	c.provision(&RuleTxn{})
}

func (c *Controller) poolAdd(id string) {
	c.instPool[id]++ // want "Controller.instPool is written outside a RuleTxn (reached from entry InstallPlacement"
}

// resetForTest is never reached from an entry point: unconstrained.
func (c *Controller) resetForTest() {
	c.instPool = nil
	c.assign = nil
}
