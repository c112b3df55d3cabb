package core

// Names kept only so that callers written against the retired
// fault-equivalence memo still compile. None of them does anything.

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
