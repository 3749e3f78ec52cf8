package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func buildSample(t *testing.T) *Trace {
	t.Helper()
	b := NewBuilder("sample", 16)
	arr, _ := b.Region("arr", 1024, 4)
	tab, _ := b.Region("tab", 4096, 8)
	for i := uint32(0); i < 8; i++ {
		b.Load(arr, i*4, 4)
	}
	b.Store(tab, 16, 8)
	b.Anon(Load, 0x10, 4)
	return b.Build()
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Fatalf("kind strings wrong: %q %q", Load, Store)
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatalf("unknown kind should embed value, got %q", Kind(9))
	}
}

func TestBuilderRegionsDisjoint(t *testing.T) {
	b := NewBuilder("x", 0)
	var infos []DSInfo
	for i := 0; i < 20; i++ {
		id, base := b.Region("r", uint32(100+i*997), 4)
		if id == Anonymous {
			t.Fatal("Region returned the anonymous DSID")
		}
		got := b.t.DS[id]
		if got.Base != base {
			t.Fatalf("returned base %#x, registry says %#x", base, got.Base)
		}
		infos = append(infos, got)
	}
	for i := 1; i < len(infos); i++ {
		prevEnd := infos[i-1].Base + infos[i-1].Size
		if infos[i].Base < prevEnd {
			t.Fatalf("regions %d and %d overlap", i-1, i)
		}
		if infos[i].Base-prevEnd < regionGuard {
			t.Fatalf("guard gap missing between regions %d and %d", i-1, i)
		}
	}
}

func TestBuilderAccessRecording(t *testing.T) {
	tr := buildSample(t)
	if tr.NumAccesses() != 10 {
		t.Fatalf("want 10 accesses, got %d", tr.NumAccesses())
	}
	if tr.Accesses[0].Kind != Load || tr.Accesses[8].Kind != Store {
		t.Fatal("kinds not recorded correctly")
	}
	counts := tr.CountByDS()
	if counts[1] != 8 || counts[2] != 1 || counts[0] != 1 {
		t.Fatalf("CountByDS wrong: %v", counts)
	}
	bytesBy := tr.BytesByDS()
	if bytesBy[1] != 32 || bytesBy[2] != 8 || bytesBy[0] != 4 {
		t.Fatalf("BytesByDS wrong: %v", bytesBy)
	}
}

func TestValidateCatchesOutOfRegion(t *testing.T) {
	tr := buildSample(t)
	bad := *tr
	bad.Accesses = append([]Access(nil), tr.Accesses...)
	bad.Accesses[0].Addr = 0 // outside region of DS 1
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-region access")
	}
}

func TestValidateCatchesBadSize(t *testing.T) {
	tr := buildSample(t)
	bad := *tr
	bad.Accesses = append([]Access(nil), tr.Accesses...)
	bad.Accesses[0].Size = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted size-3 access")
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	tr := &Trace{
		Name: "overlap",
		DS: []DSInfo{
			{Name: "anon"},
			{Name: "a", Base: 0x1000, Size: 0x100},
			{Name: "b", Base: 0x10f0, Size: 0x100},
		},
	}
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted overlapping regions")
	}
}

func TestValidateCatchesUnknownDS(t *testing.T) {
	tr := buildSample(t)
	bad := *tr
	bad.Accesses = append([]Access(nil), tr.Accesses...)
	bad.Accesses[0].DS = 99
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted unknown DSID")
	}
}

func TestSliceBounds(t *testing.T) {
	tr := buildSample(t)
	s := tr.Slice(-5, 4)
	if s.NumAccesses() != 4 {
		t.Fatalf("Slice(-5,4): want 4, got %d", s.NumAccesses())
	}
	s = tr.Slice(8, 100)
	if s.NumAccesses() != 2 {
		t.Fatalf("Slice(8,100): want 2, got %d", s.NumAccesses())
	}
	s = tr.Slice(7, 3)
	if s.NumAccesses() != 0 {
		t.Fatalf("inverted Slice: want 0, got %d", s.NumAccesses())
	}
}

func TestInfoOutOfRange(t *testing.T) {
	tr := buildSample(t)
	if got := tr.Info(200); got.Name != "?" {
		t.Fatalf("Info(200) = %q, want ?", got.Name)
	}
	if got := tr.Info(1); got.Name != "arr" {
		t.Fatalf("Info(1) = %q, want arr", got.Name)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := buildSample(t)
	var buf bytes.Buffer
	if err := writeMTR1(&buf, tr); err != nil {
		t.Fatalf("writeMTR1: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("round trip mismatch")
	}
}

func TestCodecBadMagic(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte("NOPE....")))
	if err != ErrBadMagic {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestCodecTruncated(t *testing.T) {
	tr := buildSample(t)
	var buf bytes.Buffer
	if err := writeMTR1(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, 5, 9, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("Read accepted trace truncated at %d bytes", cut)
		}
	}
}

// Property: encoding then decoding any randomly generated valid trace
// yields an identical trace.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("q", int(n))
		ids := make([]DSID, 1+rng.Intn(5))
		sizes := make([]uint32, len(ids))
		for i := range ids {
			sizes[i] = uint32(64 + rng.Intn(4096))
			ids[i], _ = b.Region("r", sizes[i], 4)
		}
		widths := []uint8{1, 2, 4, 8}
		for i := 0; i < int(n); i++ {
			j := rng.Intn(len(ids))
			w := widths[rng.Intn(len(widths))]
			off := uint32(rng.Intn(int(sizes[j]-uint32(w)) + 1))
			if rng.Intn(2) == 0 {
				b.Load(ids[j], off, w)
			} else {
				b.Store(ids[j], off, w)
			}
		}
		tr := b.Build()
		var buf bytes.Buffer
		if err := writeMTR1(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: builder output always validates.
func TestQuickBuilderValid(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("q", int(n))
		id, _ := b.Region("r", 4096, 4)
		for i := 0; i < int(n); i++ {
			b.Load(id, uint32(rng.Intn(4092)), 4)
		}
		tr := b.Build()
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderZeroSizeRegion(t *testing.T) {
	b := NewBuilder("z", 0)
	id, _ := b.Region("empty", 0, 0)
	if b.t.DS[id].Size != 1 {
		t.Fatalf("zero-size region should be clamped to 1, got %d", b.t.DS[id].Size)
	}
}

func TestCompressedCodecRoundTrip(t *testing.T) {
	tr := buildSample(t)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf) // auto-detected
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("compressed round trip mismatch")
	}
}

func TestCompressedSmallerOnStriding(t *testing.T) {
	// A stream-heavy trace compresses well: per-DS deltas are tiny.
	b := NewBuilder("stream", 50_000)
	id, _ := b.Region("s", 1<<20, 4)
	for i := uint32(0); i < 50_000; i++ {
		b.Load(id, (i*4)%(1<<20), 4)
	}
	tr := b.Build()
	var plain, packed bytes.Buffer
	if err := writeMTR1(&plain, tr); err != nil {
		t.Fatal(err)
	}
	if err := Write(&packed, tr); err != nil {
		t.Fatal(err)
	}
	if packed.Len()*2 > plain.Len() {
		t.Fatalf("MTR2 (%d bytes) should be at most half of MTR1 (%d bytes)",
			packed.Len(), plain.Len())
	}
}

func TestCompressedTruncated(t *testing.T) {
	tr := buildSample(t)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, 5, 9, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("Read accepted MTR2 truncated at %d bytes", cut)
		}
	}
}

// Property: both codecs round-trip arbitrary valid traces identically.
func TestQuickBothCodecsAgree(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("q2", int(n))
		id1, _ := b.Region("a", 8192, 4)
		id2, _ := b.Region("b", 8192, 8)
		widths := []uint8{1, 2, 4, 8}
		for i := 0; i < int(n); i++ {
			id := id1
			if rng.Intn(2) == 0 {
				id = id2
			}
			w := widths[rng.Intn(4)]
			off := uint32(rng.Intn(8192 - 8))
			if rng.Intn(2) == 0 {
				b.Load(id, off, w)
			} else {
				b.Store(id, off, w)
			}
		}
		tr := b.Build()
		var b1, b2 bytes.Buffer
		if writeMTR1(&b1, tr) != nil || Write(&b2, tr) != nil {
			return false
		}
		t1, err1 := Read(&b1)
		t2, err2 := Read(&b2)
		if err1 != nil || err2 != nil {
			return false
		}
		return reflect.DeepEqual(t1, t2) && reflect.DeepEqual(t1, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Fuzz-ish property: feeding random bytes to Read must error, never
// panic or loop.
func TestQuickReadGarbage(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(n))
		rng.Read(data)
		// Sometimes make the magic valid to exercise deeper paths.
		if len(data) >= 4 && rng.Intn(2) == 0 {
			copy(data, "MTR1")
			if rng.Intn(2) == 0 {
				copy(data, "MTR2")
			}
		}
		defer func() { recover() }()
		_, err := Read(bytes.NewReader(data))
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderAddressSpaceExhaustion(t *testing.T) {
	b := NewBuilder("huge", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("address-space exhaustion not detected")
		}
	}()
	for i := 0; i < 10; i++ {
		b.Region("big", 0xE000_0000, 4)
	}
}
