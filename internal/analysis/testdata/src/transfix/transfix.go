// Package transfix is the fixture of the noalloc check's walk: annotated
// roots reaching allocating helpers through static and cross-package call
// chains, dynamic calls at the root and two hops below it (findings — the
// walk does not resolve them), the amortized boundary, and the
// finding-site allow.
package transfix

import "fixture/transfix/transdep"

// Sink is an interface: a call through it is a finding, not an edge.
type Sink interface {
	Emit(n int)
}

// SliceSink implements Sink with an allocating Emit the walk never sees:
// whoever allow-lists the s.Emit call certifies its targets by hand.
type SliceSink struct{ buf []int }

// Emit allocates.
func (s *SliceSink) Emit(n int) {
	s.buf = make([]int, n)
}

// Hook is a func-typed package variable.
var Hook func(n int)

// levelOne is the clean middle hop of the two-level chain.
func levelOne(n int) int { return levelTwo(n) + 1 }

// levelTwo, two static hops below the annotated root, allocates and
// dispatches dynamically: both are findings that name the chain.
func levelTwo(n int) int {
	tmp := make([]int, n)
	Hook(n)
	return len(tmp)
}

// grow is a deliberate amortized boundary: the traversal must not descend
// into it.
//
//mpichv:amortized doubles the buffer; growth cost amortizes to zero over the steady state
func grow(n int) []int { return make([]int, 2*n) }

// badBoundary carries a reasonless amortized directive: itself a finding.
//
//mpichv:amortized
func badBoundary() {}

// conflicted carries both directives: itself a finding.
//
//mpichv:noalloc
//mpichv:amortized covered twice
func conflicted() {}

// Root is the annotated root every chain below starts from.
//
//mpichv:noalloc
func Root(s Sink, f func(int) int, n int) int {
	total := levelOne(n)
	total += len(grow(n))
	s.Emit(n)
	total += f(n)
	total += transdep.Helper(n)
	return total
}

// Allowed is a second root whose reached allocation is suppressed at the
// finding site.
//
//mpichv:noalloc
func Allowed(n int) int { return allowedHelper(n) }

// allowedHelper carries a finding-site allow on its alloc line.
func allowedHelper(n int) int {
	//lint:allow noalloc scratch buffer measured alloc-free under the runtime gate
	s := make([]int, n)
	return len(s)
}
