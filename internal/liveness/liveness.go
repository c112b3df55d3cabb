// Package liveness once held a bit-level static liveness analysis that
// let campaigns classify flips of provably dead bits without executing
// them. Convergence with the golden run ends those experiments almost
// as early, so the analysis is gone; the package keeps only the names
// older callers compile against.
package liveness

import "multiflip/internal/ir"

// Analysis is an empty analysis result.
//
// Deprecated: campaigns prune nothing statically.
type Analysis struct{}

// Analyze returns an empty Analysis without examining p.
//
// Deprecated: campaigns prune nothing statically.
func Analyze(p *ir.Program) *Analysis { return &Analysis{} }
