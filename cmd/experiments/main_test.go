package main

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// names resolves a -fig value and returns the selected experiment names.
func names(t *testing.T, figSpec string) ([]string, error) {
	t.Helper()
	exps, err := resolveFigures(figSpec)
	var out []string
	for _, e := range exps {
		out = append(out, e.Name)
	}
	return out, err
}

func TestResolveFigures(t *testing.T) {
	t.Run("all", func(t *testing.T) {
		got, err := names(t, "all")
		if err != nil {
			t.Fatal(err)
		}
		// -list prints the same names, so this is also its output.
		want := []string{"fig1", "fig6a", "fig6b", "fig7", "fig8a", "fig8b", "fig9", "fig10",
			"ext-el", "ext-elsweep", "ext-sched", "ext-duplex", "ext-faultstorm",
			"ext-elcontribution", "ext-partition", "ext-service"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("all = %v, want the full experiment list %v", got, want)
		}
	})

	t.Run("short and long forms", func(t *testing.T) {
		got, err := names(t, "7, fig6a ,8b")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"fig7", "fig6a", "fig8b"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("resolve = %v, want %v", got, want)
		}
	})

	t.Run("extension names pass through", func(t *testing.T) {
		got, err := names(t, "ext-el")
		if err != nil || len(got) != 1 || got[0] != "ext-el" {
			t.Errorf("resolve(ext-el) = %v, %v", got, err)
		}
	})

	all, _ := names(t, "all")
	for _, family := range []string{"partition", "service"} {
		t.Run(family+" experiments registered", func(t *testing.T) {
			full, smoke := "ext-"+family, "ext-"+family+"-smoke"
			got, err := names(t, full+","+smoke)
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{full, smoke}; !reflect.DeepEqual(got, want) {
				t.Errorf("resolve = %v, want %v", got, want)
			}
			if !slices.Contains(all, full) {
				t.Errorf("%s missing from -fig all", full)
			}
			if slices.Contains(all, smoke) {
				t.Errorf("smoke variant %s in -fig all", smoke)
			}
		})
	}

	t.Run("unknown figure", func(t *testing.T) {
		if _, err := resolveFigures("99"); err == nil {
			t.Error("unknown figure should error")
		}
	})

	t.Run("empty selection", func(t *testing.T) {
		if _, err := resolveFigures(" , "); err == nil {
			t.Error("empty selection should error")
		}
	})
}

func TestPrepareOutDir(t *testing.T) {
	if err := prepareOutDir(""); err != nil {
		t.Fatalf("empty dir (stdout mode) should be a no-op: %v", err)
	}

	nested := filepath.Join(t.TempDir(), "a", "b", "out")
	if err := prepareOutDir(nested); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(nested)
	if err != nil || !st.IsDir() {
		t.Fatalf("out dir not created: %v", err)
	}

	// A path blocked by an existing file must surface an error.
	blocked := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := prepareOutDir(filepath.Join(blocked, "sub")); err == nil {
		t.Error("creating a dir under a regular file should error")
	}
}
