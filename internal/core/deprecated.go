package core

// Names kept only so that callers written against the retired
// fault-equivalence memo and static liveness pruning still compile.
// None of them does anything.

// SharedMemo is an empty value that campaigns ignore.
//
// Deprecated: campaigns keep no fault-equivalence memo; convergence
// with the golden run is the one early exit.
type SharedMemo struct{}

// OpenSharedMemo returns an empty SharedMemo without touching path.
//
// Deprecated: campaigns keep no fault-equivalence memo.
func OpenSharedMemo(path string) (*SharedMemo, error) { return &SharedMemo{}, nil }

// Close does nothing and returns nil.
//
// Deprecated: campaigns keep no fault-equivalence memo.
func (m *SharedMemo) Close() error { return nil }

// StaticPredictor is the seam through which a fault model once
// classified experiments without executing them. The engine still asks
// a model that implements it about every planned experiment, and
// ignores the answer: every experiment executes.
//
// Deprecated: campaigns prune nothing statically; convergence with the
// golden run is the one early exit.
type StaticPredictor interface {
	PredictStatic(t *Target, inj *Injection) (Experiment, bool)
}

// PredictStatic declines every plan.
//
// Deprecated: campaigns prune nothing statically.
func (m *RegisterModel) PredictStatic(t *Target, inj *Injection) (Experiment, bool) {
	return Experiment{}, false
}
