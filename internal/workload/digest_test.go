package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// digestInstrPerWarp is long enough for the generator's wrap points to
// fire: by 20,000 instructions per warp several Table II benchmarks
// wrap their window start around the region and most wrap the
// streaming cursor, which the golden cell lengths (300 and 1,500)
// never reach.
const digestInstrPerWarp = 20000

// wantStreamDigest pins the instruction streams of every Table II
// benchmark: a change to it means the generator emits different work.
const wantStreamDigest = "0d297e954b256a0902d6725ad25baac18864a1ec8dca75bd9e72a1b48804a36e"

// TestSuiteStreamDigest hashes every instruction (kind, fan-out, live
// addresses, conflict degree) of all warps of each Table II benchmark,
// generated in the SM's batch size, and compares the digest with the
// pinned one.
func TestSuiteStreamDigest(t *testing.T) {
	h := sha256.New()
	var rec [1 + 1 + 8 + 8*MaxFanout]byte
	var buf [16]Instruction
	for _, spec := range Suite() {
		spec.InstrPerWarp = digestInstrPerWarp
		h.Write([]byte(spec.Name))
		for w := 0; w < spec.NumWarps; w++ {
			s := NewWarpStream(spec, w)
			for n := s.Fill(buf[:]); n > 0; n = s.Fill(buf[:]) {
				for i := range buf[:n] {
					ins := &buf[i]
					rec[0], rec[1] = byte(ins.Kind), ins.NAddr
					binary.LittleEndian.PutUint64(rec[2:], uint64(ins.Conflict))
					b := rec[:10]
					for _, a := range ins.AddrSlice() {
						b = binary.LittleEndian.AppendUint64(b, uint64(a))
					}
					h.Write(b)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantStreamDigest {
		t.Fatalf("stream digest = %s, want %s", got, wantStreamDigest)
	}
}
