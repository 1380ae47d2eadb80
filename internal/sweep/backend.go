package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// SegmentsDir is the sweep-directory subdirectory holding the
// immutable compacted segments and their manifest. Keeping blobs out
// of the sweep root means the manifest and the live tail stay the only
// loose files there.
const SegmentsDir = "segments"

// validBlobName rejects names that could escape the backend's flat
// namespace — path separators, traversal, hidden temp files.
func validBlobName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("sweep: invalid blob name %q", name)
	}
	if strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("sweep: invalid blob name %q (no path separators)", name)
	}
	if strings.HasPrefix(name, ".") {
		return fmt.Errorf("sweep: invalid blob name %q (no dotfiles)", name)
	}
	return nil
}

// DirBackend stores the immutable blobs of a tiered result store —
// compacted segments plus their segments.json manifest — as one file
// per blob in a single directory, under flat validated names. Put
// writes a temp file, fsyncs it, and renames it into place — the same
// commit discipline as the manifest rewrite — so a kill at any instant
// leaves every named blob whole.
type DirBackend struct {
	dir string
}

// NewDirBackend returns a backend rooted at dir. The directory is
// created lazily on the first Put, so read-only use of a store that
// was never compacted touches nothing.
func NewDirBackend(dir string) *DirBackend { return &DirBackend{dir: dir} }

// Put atomically writes a blob.
func (b *DirBackend) Put(name string, data []byte) error {
	if err := validBlobName(name); err != nil {
		return err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return fmt.Errorf("sweep: backend put %s: %w", name, err)
	}
	dst := filepath.Join(b.dir, name)
	tmp, err := os.CreateTemp(b.dir, "."+name+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: backend put %s: %w", name, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: backend put %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: backend put %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sweep: backend put %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("sweep: backend put %s: %w", name, err)
	}
	return nil
}

// Get reads a blob whole; a missing blob is fs.ErrNotExist.
func (b *DirBackend) Get(name string) ([]byte, error) {
	if err := validBlobName(name); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(b.dir, name))
}
