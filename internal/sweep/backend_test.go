package sweep

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func TestDirBackendRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segs")
	b := NewDirBackend(dir)

	// A never-written backend reads a missing blob, not an I/O error.
	if _, err := b.Get("seg-000001.ndjson"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get missing blob = %v, want fs.ErrNotExist", err)
	}

	if err := b.Put("seg-000002.ndjson", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("seg-000001.ndjson", []byte("one")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("seg-000001.ndjson")
	if err != nil || !bytes.Equal(got, []byte("one")) {
		t.Fatalf("Get = (%q, %v)", got, err)
	}
	// Put replaces atomically.
	if err := b.Put("seg-000001.ndjson", []byte("one'")); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Get("seg-000001.ndjson"); !bytes.Equal(got, []byte("one'")) {
		t.Fatalf("Get after overwrite = %q", got)
	}
}

func TestBlobNameValidation(t *testing.T) {
	bad := []string{"", ".", "..", "a/b", `a\b`, "../escape", ".hidden", "/abs"}
	dir := t.TempDir()
	b := NewDirBackend(dir)
	for _, name := range bad {
		if err := b.Put(name, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid name", name)
		}
		if _, err := b.Get(name); err == nil {
			t.Errorf("Get(%q) accepted an invalid name", name)
		}
	}
	// Nothing escaped the backend directory.
	if _, err := os.Stat(filepath.Join(dir, "..", "escape")); err == nil {
		t.Error("a traversal name created a file outside the backend")
	}
	if err := b.Put("seg-000001.ndjson.gz", []byte("x")); err != nil {
		t.Errorf("a legitimate segment name was rejected: %v", err)
	}
}
