package audit

// The differential test runs a real grid, and core imports audit, so it
// lives in package audit_test; these names give it the reference.

// RefObserver is the reference observer (observer_ref_test.go).
type RefObserver = refObserver

// NewRefObserver returns a live (retiring) reference observer.
func NewRefObserver(nodes map[string]int) *RefObserver { return newRefObserver(nodes) }

// RefCheck is Check over the reference observer.
func RefCheck(run Run) Result { return refCheck(run) }
