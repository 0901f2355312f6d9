package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mpichv/internal/experiment"
)

func TestResolveFigures(t *testing.T) {
	reports := experiment.Index()

	t.Run("all", func(t *testing.T) {
		names, err := resolveFigures("all", reports)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(names, experiment.Names()) {
			t.Errorf("all = %v, want the full experiment list", names)
		}
	})

	t.Run("short and long forms", func(t *testing.T) {
		names, err := resolveFigures("7, fig6a ,8b", reports)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"fig7", "fig6a", "fig8b"}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("resolve = %v, want %v", names, want)
		}
	})

	t.Run("extension names pass through", func(t *testing.T) {
		names, err := resolveFigures("ext-el", reports)
		if err != nil || len(names) != 1 || names[0] != "ext-el" {
			t.Errorf("resolve(ext-el) = %v, %v", names, err)
		}
	})

	t.Run("partition experiments registered", func(t *testing.T) {
		names, err := resolveFigures("ext-partition,ext-partition-smoke", reports)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"ext-partition", "ext-partition-smoke"}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("resolve = %v, want %v", names, want)
		}
		found := false
		for _, n := range experiment.Names() {
			if n == "ext-partition" {
				found = true
			}
		}
		if !found {
			t.Error("ext-partition missing from experiment.Names")
		}
	})

	t.Run("service experiments registered", func(t *testing.T) {
		names, err := resolveFigures("ext-service,ext-service-smoke", reports)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"ext-service", "ext-service-smoke"}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("resolve = %v, want %v", names, want)
		}
		found := false
		for _, n := range experiment.Names() {
			if n == "ext-service" {
				found = true
			}
		}
		if !found {
			t.Error("ext-service missing from experiment.Names")
		}
	})

	t.Run("unknown figure", func(t *testing.T) {
		if _, err := resolveFigures("99", reports); err == nil {
			t.Error("unknown figure should error")
		}
	})

	t.Run("empty selection", func(t *testing.T) {
		if _, err := resolveFigures(" , ", reports); err == nil {
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
