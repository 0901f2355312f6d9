// Package hotcallfix is the fixture of the noalloc check's dispatch
// rules: every dynamic-dispatch shape inside a //mpichv:noalloc function,
// the accepted direct-call idioms, site suppression, and a directive
// naming a retired check.
package hotcallfix

// Doer is the interface whose dispatch the check flags.
type Doer interface{ Do() }

// Hooks carries a func-typed field.
type Hooks struct{ OnDone func() }

// impl is a concrete Doer.
type impl struct{}

// Do implements Doer without allocating.
func (impl) Do() {}

// concrete is a direct-call target: never flagged.
func concrete() {}

// Bad exercises every dynamic-dispatch shape the check must flag.
//
//mpichv:noalloc
func Bad(d Doer, f func(), h Hooks) {
	defer concrete()
	d.Do()
	f()
	h.OnDone()
	func() {}()
	[]func(){f}[0]()
	concrete()
	impl{}.Do()
	impl.Do(impl{})
}

// Allowed shows call-site suppression with a reason.
//
//mpichv:noalloc
func Allowed(f func()) {
	f() //lint:allow noalloc invoked once per rare event, measured under the runtime gate
}

// Retired names a check that no longer exists: the directive is an
// "unknown check" finding and suppresses nothing.
//
//mpichv:noalloc
func Retired(f func()) {
	f() //lint:allow hotcall a stale directive from before the checks were folded into noalloc
}

// Unannotated is free to dispatch dynamically.
func Unannotated(d Doer) { d.Do() }
