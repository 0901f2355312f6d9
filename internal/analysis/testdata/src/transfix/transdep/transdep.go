// Package transdep is the cross-package leg of the transfix fixture: an
// allocating helper reached from an annotated root in another package.
package transdep

// Helper allocates; transfix.Root reaches it across the package boundary.
func Helper(n int) int {
	buf := make([]int, n)
	return len(buf)
}
