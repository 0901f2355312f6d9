// Package noallocfix is the fixture of the noalloc check's allocation
// rules: annotated functions carrying each allocating construct, and one
// clean annotated function using every allowed form.
package noallocfix

import "fmt"

// Item is a value type appended on the hot path.
type Item struct {
	K, V int
}

// Buf owns a reusable slice.
type Buf struct {
	items []Item
	n     int
}

// BadAllocs carries one of each allocating construct: findings expected
// for every line of the body.
//
//mpichv:noalloc
func BadAllocs(b *Buf, s string, raw []byte, extern []Item) {
	p := new(Item)
	q := make([]Item, 4)
	r := &Item{K: 1}
	sl := []int{1, 2, 3}
	cat := s + "x"
	conv := string(raw)
	back := []byte(s)
	fmt.Println(p, q, r, sl, cat, conv, back)
	_ = append(extern, Item{})
	f := func() {}
	go f()
}

// GoodHotPath uses only allowed forms — owned appends, value struct
// literals, field updates, integer work: no findings.
//
//mpichv:noalloc
func GoodHotPath(b *Buf, it Item) int {
	b.items = append(b.items, it)
	b.items = append(b.items, Item{K: it.K + 1})
	b.n++
	local := Item{K: b.n}
	return local.K + len(b.items)
}

// GoodReturnAppend returns the grown buffer to its owner: no finding.
//
//mpichv:noalloc
func GoodReturnAppend(buf []Item, it Item) []Item {
	return append(buf, it)
}

// AllowedAlloc demonstrates a suppressed cold branch inside an annotated
// function.
//
//mpichv:noalloc
func AllowedAlloc(b *Buf) {
	if b.items == nil {
		//lint:allow noalloc one-time lazy init, not on the steady-state path
		b.items = make([]Item, 0, 8)
	}
	b.n++
}

// Unannotated may allocate freely: no findings without the directive.
func Unannotated() []Item {
	return make([]Item, 8)
}
