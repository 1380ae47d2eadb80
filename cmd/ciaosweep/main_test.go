package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const exampleSpec = "../../examples/sweep-l1-capacity.json"

func TestParseShard(t *testing.T) {
	for _, c := range []struct {
		in     string
		idx, n int
	}{
		{"", 0, 1},
		{"1/3", 1, 3},
	} {
		idx, n, err := parseShard(c.in)
		if err != nil || idx != c.idx || n != c.n {
			t.Errorf("parseShard(%q) = %d, %d, %v; want %d, %d, nil", c.in, idx, n, err, c.idx, c.n)
		}
	}
	for _, in := range []string{"2/2", "-1/2", "0/0", "a/b", "1"} {
		if _, _, err := parseShard(in); err == nil {
			t.Errorf("parseShard(%q) accepted", in)
		}
	}
}

func TestReadSpecRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	if _, err := readSpec(exampleSpec); err != nil {
		t.Fatalf("example spec: %v", err)
	}
	dir := t.TempDir()
	for name, body := range map[string]string{
		"unknown.json":  `{"name": "s", "bogus": 1}`,
		"trailing.json": `{"name": "s"} {}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readSpec(path)
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("readSpec(%s) = %v, want an error naming the file", name, err)
		}
	}
}

func TestOpenStore(t *testing.T) {
	spec, err := readSpec(exampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")

	// -resume with nothing to resume creates the store.
	store, err := openStore(dir, spec, len(cells), true)
	if err != nil {
		t.Fatalf("resume of a missing store: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// An existing store without -resume is refused, pointing at -resume.
	if _, err := openStore(dir, spec, len(cells), false); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("existing store without -resume: %v, want an error naming -resume", err)
	}
}

func TestRunMergeNeedsDir(t *testing.T) {
	if err := runMerge(exampleSpec, "", "a,b"); err == nil || !strings.Contains(err.Error(), "-dir") {
		t.Fatalf("runMerge without -dir = %v, want an error naming -dir", err)
	}
}
