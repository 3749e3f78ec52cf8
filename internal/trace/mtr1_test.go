package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeMTR1 encodes t in the original fixed-record MTR1 format. Write
// emits only MTR2; this reference encoder keeps the MTR1 decoder under
// the same round-trip, truncation and fuzz tests as the MTR2 one.
func writeMTR1(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, magic, t); err != nil {
		return err
	}
	var rec [8]byte
	for _, a := range t.Accesses {
		binary.LittleEndian.PutUint32(rec[0:], a.Addr)
		binary.LittleEndian.PutUint16(rec[4:], uint16(a.DS))
		rec[6] = uint8(a.Kind)
		rec[7] = a.Size
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// goldenTrace is the trace pinned by testdata/golden_v1.mtr: two
// structures, loads and stores of every width, a backward stride and
// anonymous accesses at both ends of the address space.
func goldenTrace() *Trace {
	b := NewBuilder("golden", 10)
	arr, _ := b.Region("arr", 256, 4)
	tab, _ := b.Region("tab", 1024, 8)
	for i := uint32(0); i < 4; i++ {
		b.Load(arr, 252-i*8, 4)
	}
	b.Store(tab, 0, 8)
	b.Load(tab, 1016, 1)
	b.Store(tab, 512, 2)
	b.Anon(Load, 0x10, 4)
	b.Anon(Store, 0xFFFFFFF0, 2)
	return b.Build()
}

// TestGoldenMTR1Fixture: an MTR1 file written by the encoder tracegen
// shipped before MTR2 became the only writer must still decode to the
// trace it was built from, and the reference encoder must still
// produce its exact bytes.
func TestGoldenMTR1Fixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "golden_v1.mtr"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("golden MTR1 fixture no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(got, goldenTrace()) {
		t.Fatalf("golden MTR1 fixture decoded to a different trace:\n got %+v\nwant %+v", got, goldenTrace())
	}
	var buf bytes.Buffer
	if err := writeMTR1(&buf, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), fixture) {
		t.Fatalf("reference MTR1 encoder drifted from the fixture (%d vs %d bytes)", buf.Len(), len(fixture))
	}
}
