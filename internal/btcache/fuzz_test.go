package btcache

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/sim"
	"memorex/internal/workload"
)

// FuzzDecode holds Decode to "reject or round-trip, never panic": any
// input either fails with a CorruptError, or decodes to a trace that
// encodes back to the very same bytes and replays through
// sim.ReplayBatch over its own channels without an error. Each input
// is also tried with its checksum recomputed, so mutations reach the
// structural checks behind the CRC instead of stopping at it. The
// version-1 fixture seeds the version check.
func FuzzDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v2.btc"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(Encode(goldenTrace(), 1))
	f.Add(Encode(largeTrace(64), 2))
	tr := workload.Vocoder{}.Generate(workload.DefaultConfig()).Slice(0, 120)
	windows := []sim.Window{{Lo: 0, Hi: 40}, {Lo: 80, Hi: 100}}
	bt, err := sim.CaptureBehavior(tr, testBehaviorArch(true), windows)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(Encode(bt, 3))
	f.Add([]byte{})
	f.Add([]byte(Magic))
	v1, err := os.ReadFile(filepath.Join("testdata", "golden_v1.btc"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)

	check := func(t *testing.T, data []byte) {
		var fp uint64
		if len(data) >= 16 {
			fp = binary.LittleEndian.Uint64(data[8:])
		}
		bt, err := Decode(data, fp)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("Decode failed with a non-corruption error: %v", err)
			}
			return
		}
		if back := Encode(bt, fp); !bytes.Equal(back, data) {
			t.Fatalf("decoded entry re-encodes to different bytes (%d vs %d)", len(back), len(data))
		}
		if _, err := sim.ReplayBatch(bt, []*connect.Arch{testConn(t, bt)}); err != nil {
			t.Fatalf("decoded entry does not replay: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if len(data) >= headerSize {
			sealed := bytes.Clone(data)
			binary.LittleEndian.PutUint32(sealed[24:], crc32.Checksum(sealed[headerSize:], castagnoli))
			check(t, sealed)
		}
	})
}
