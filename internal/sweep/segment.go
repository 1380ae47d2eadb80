package sweep

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
)

// SegmentsFile is the blob naming the store's committed segment list.
// Writing it (atomically, via DirBackend.Put) is the commit point of a
// compaction: a segment blob not named here does not exist yet.
const SegmentsFile = "segments.json"

// maxSegmentBytes bounds one segment blob's uncompressed size in
// memory. Compaction creates segments far smaller than this; the cap
// only stops a corrupt gzip blob from inflating without limit.
const maxSegmentBytes = 256 << 20

// SegmentInfo describes one immutable compacted segment: a verbatim
// byte range of the logical results stream, frozen into a blob.
type SegmentInfo struct {
	// Name is the blob name (seg-000001.ndjson, .ndjson.gz when
	// compressed).
	Name string `json:"name"`
	// Records is how many NDJSON lines the segment holds.
	Records int `json:"records"`
	// Bytes is the uncompressed length — the segment's extent in the
	// logical stream. Offsets into the stream are sums of these, which
	// is what keeps follower positions valid across compactions.
	Bytes int64 `json:"bytes"`
	// Gzip records whether the blob is gzip-compressed.
	Gzip bool `json:"gzip"`
}

// segmentList is the segments.json schema.
type segmentList struct {
	Segments []SegmentInfo `json:"segments"`
}

// loadSegmentList reads the committed segment list; a store that was
// never compacted has none and loads empty.
func loadSegmentList(b *DirBackend) ([]SegmentInfo, error) {
	data, err := b.Get(SegmentsFile)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: read segment list: %w", err)
	}
	var l segmentList
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("sweep: corrupt segment list: %w", err)
	}
	return l.Segments, nil
}

// commitSegmentList atomically replaces the committed segment list —
// the durable commit point of a compaction.
func commitSegmentList(b *DirBackend, segs []SegmentInfo) error {
	data, err := json.MarshalIndent(segmentList{Segments: segs}, "", "  ")
	if err != nil {
		return err
	}
	if err := b.Put(SegmentsFile, append(data, '\n')); err != nil {
		return fmt.Errorf("sweep: commit segment list: %w", err)
	}
	return nil
}

// segmentName formats the blob name for segment index n (1-based).
func segmentName(n int, gzipped bool) string {
	name := fmt.Sprintf("seg-%06d.ndjson", n)
	if gzipped {
		name += ".gz"
	}
	return name
}

// encodeSegment turns a verbatim chunk of the results stream into
// blob bytes, gzip-compressing when asked.
func encodeSegment(data []byte, gzipped bool) ([]byte, error) {
	if !gzipped {
		return data, nil
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readSegment fetches one segment and returns its uncompressed bytes,
// verified against the manifest's recorded extent — a length mismatch
// means the blob does not match the committed list and must not be
// spliced into the logical stream.
func readSegment(b *DirBackend, seg SegmentInfo) ([]byte, error) {
	blob, err := b.Get(seg.Name)
	if err != nil {
		return nil, fmt.Errorf("sweep: read segment %s: %w", seg.Name, err)
	}
	data := blob
	if seg.Gzip {
		zr, err := gzip.NewReader(bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("sweep: read segment %s: %w", seg.Name, err)
		}
		data, err = io.ReadAll(io.LimitReader(zr, maxSegmentBytes+1))
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: read segment %s: %w", seg.Name, err)
		}
	}
	if int64(len(data)) != seg.Bytes {
		return nil, fmt.Errorf("sweep: segment %s holds %d bytes, manifest says %d", seg.Name, len(data), seg.Bytes)
	}
	return data, nil
}
