package sweep

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
)

// benchRecord builds a CellRecord with a payload shaped like a real
// harness result, so append/read costs reflect production line sizes.
func benchRecord(i int) CellRecord {
	payload, _ := json.Marshal(map[string]any{
		"bench": "SYRK", "sched": "GTO", "ipc": 1.8342,
		"l1_miss": 0.2213, "dram_bw": 0.4871, "cycles": 1828413 + i,
	})
	return CellRecord{
		Key:    fmt.Sprintf("SYRK|GTO|%d", i),
		Status: StatusOK,
		Result: payload,
	}
}

// BenchmarkStoreAppend measures the hot write path: one NDJSON line
// appended and deduped (with no followers attached).
func BenchmarkStoreAppend(b *testing.B) {
	st, err := Create(filepath.Join(b.TempDir(), "s"), "bench", testSpec(), b.N)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec := benchRecord(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Key = fmt.Sprintf("SYRK|GTO|%d", i)
		if err := st.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
