package analysis

import (
	"path/filepath"
	"slices"
	"testing"
)

// loadTransfix loads the transfix fixture and its cross-package leg only:
// neither imports the standard library, so this is cheap.
func loadTransfix(t *testing.T) ([]*hotFunc, map[string]*hotFunc) {
	t.Helper()
	loader, err := NewLoader(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	m := &Module{}
	for _, dir := range []string{"transfix", "transfix/transdep"} {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("load fixture %s: %v", dir, err)
		}
		m.Pkgs = append(m.Pkgs, pkg)
	}
	funcs, _ := hotFuncs(m)
	byName := make(map[string]*hotFunc)
	for _, f := range funcs {
		byName[displayName(f.fn)] = f
	}
	return funcs, byName
}

// TestCallGraphEdges pins what the walk sees at a call site: static calls
// (same- and cross-package) are callees to follow, interface and
// func-value calls are dynamic-dispatch findings and never edges, and a
// callee's callees are not the caller's.
func TestCallGraphEdges(t *testing.T) {
	_, byName := loadTransfix(t)
	for _, tc := range []struct {
		fn      string
		callees []string
		dynamic int
	}{
		{"transfix.Root", []string{"transfix.levelOne", "transfix.grow", "transdep.Helper"}, 2},
		{"transfix.levelOne", []string{"transfix.levelTwo"}, 0},
		{"transfix.levelTwo", nil, 1},
	} {
		f := byName[tc.fn]
		if f == nil {
			t.Fatalf("no function %s in the fixture", tc.fn)
		}
		var callees []string
		dynamic := 0
		for _, c := range hotCalls(f.pkg, f.decl) {
			if c.dynamic != "" {
				dynamic++
			} else {
				callees = append(callees, displayName(c.callee))
			}
		}
		if !slices.Equal(callees, tc.callees) || dynamic != tc.dynamic {
			t.Errorf("%s: static callees %v and %d dynamic calls, want %v and %d", tc.fn, callees, dynamic, tc.callees, tc.dynamic)
		}
	}
}

// TestCallGraphDirectives pins the directive fields the traversal relies
// on: noalloc and amortized flags, the mandatory reason, and the
// both-directives conflict.
func TestCallGraphDirectives(t *testing.T) {
	_, byName := loadTransfix(t)
	cases := []struct {
		display   string
		noalloc   bool
		amortized bool
		hasReason bool
	}{
		{"transfix.Root", true, false, false},
		{"transfix.grow", false, true, true},
		{"transfix.badBoundary", false, true, false},
		{"transfix.conflicted", true, true, true},
		{"transfix.levelOne", false, false, false},
	}
	for _, tc := range cases {
		f := byName[tc.display]
		if f == nil {
			t.Fatalf("no function %s in the fixture", tc.display)
		}
		if f.noalloc != tc.noalloc || f.amortized != tc.amortized || (f.reason != "") != tc.hasReason {
			t.Errorf("%s: got noalloc=%v amortized=%v reason=%q, want noalloc=%v amortized=%v hasReason=%v",
				tc.display, f.noalloc, f.amortized, f.reason, tc.noalloc, tc.amortized, tc.hasReason)
		}
	}
}
