package lp

// NewEnginePair exposes the sparse-vs-dense differential harness to the
// external test package, which needs core and experiments (both import lp)
// to build the paper's placement models.
var NewEnginePair = newEnginePair

// SuspendCertificates turns TestMain's certificate hook off until the
// returned function is called: the checker allocates, which the allocation
// pins must not count.
func SuspendCertificates() (restore func()) {
	hook := onOptimal
	onOptimal = nil
	return func() { onOptimal = hook }
}
