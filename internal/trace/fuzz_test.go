package trace_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"memorex/internal/trace"
)

// writers are the two encoders a decoded trace must round-trip through:
// the production MTR2 writer and the test-only MTR1 reference.
var writers = []struct {
	name  string
	write func(io.Writer, *trace.Trace) error
}{
	{"MTR1", trace.WriteMTR1},
	{"MTR2", trace.Write},
}

// fuzzSeedTraces returns small valid traces: an empty one, one with
// anonymous accesses, and one with several structures and strides.
func fuzzSeedTraces() []*trace.Trace {
	empty := trace.NewBuilder("empty", 0).Build()

	b := trace.NewBuilder("mixed", 32)
	arr, _ := b.Region("arr", 256, 4)
	tab, _ := b.Region("tab", 1024, 8)
	for i := uint32(0); i < 8; i++ {
		b.Load(arr, i*4, 4)
		b.Store(tab, (i*40)%1024, 8)
	}
	b.Anon(trace.Load, 0x10, 1)
	b.Anon(trace.Store, 0xFFFFFFF0, 2)
	mixed := b.Build()

	b = trace.NewBuilder("back", 8)
	d, _ := b.Region("d", 64, 4)
	for _, off := range []uint32{60, 0, 32, 4} {
		b.Load(d, off, 4)
	}
	return []*trace.Trace{empty, mixed, b.Build()}
}

// FuzzTraceRead holds trace.Read to "reject or round-trip, never panic":
// any input either fails to decode, or decodes to a trace that passes
// Validate and comes back equal from both encoders.
func FuzzTraceRead(f *testing.F) {
	for _, tr := range fuzzSeedTraces() {
		for _, w := range writers {
			var buf bytes.Buffer
			if err := w.write(&buf, tr); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte{})
	f.Add([]byte("MTR1"))
	f.Add([]byte("MTR2\x01\x00x\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("NOPE and then some"))
	// A header claiming 2^32 accesses with none behind it.
	huge := []byte("MTR1\x00\x00\x01\x00\x00\x00")
	huge = append(huge, make([]byte, 12)...)
	huge = binary.LittleEndian.AppendUint64(huge, 1<<32)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Read returned a trace that fails Validate: %v", err)
		}
		for _, w := range writers {
			var buf bytes.Buffer
			if err := w.write(&buf, tr); err != nil {
				t.Fatalf("%s: encoding a decoded trace: %v", w.name, err)
			}
			back, err := trace.Read(&buf)
			if err != nil {
				t.Fatalf("%s: decoding a re-encoded trace: %v", w.name, err)
			}
			if !reflect.DeepEqual(back, tr) {
				t.Fatalf("%s: round trip changed the trace:\n got %+v\nwant %+v", w.name, back, tr)
			}
		}
	})
}
