package adl

import (
	"testing"

	"memorex/internal/connect"
	"memorex/internal/trace"
)

// fuzzTrace is the fixed trace every fuzzed description is resolved
// against: three named structures for map= to name.
func fuzzTrace() *trace.Trace {
	b := trace.NewBuilder("fuzz", 16)
	speech, _ := b.Region("speech", 256, 4)
	work, _ := b.Region("work", 1024, 8)
	heap, _ := b.Region("heap", 512, 8)
	for i := uint32(0); i < 4; i++ {
		b.Load(speech, i*4, 4)
		b.Store(work, i*64, 8)
		b.Load(heap, i*8, 8)
	}
	return b.Build()
}

// FuzzParse holds Parse to "reject or round-trip, never panic": any
// description either fails to parse, or parses to a system that Format
// writes back as text Parse accepts again, and that text is a fixed
// point of Format.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		vocoderSystem,
		`
memory {
  cache  l1 size=2048 line=32 assoc=1 policy=wt
  cache  l2 size=4096 line=32 assoc=2 victim=4
  lldma  ld buf=256 node=8 pred=0.42 map=heap
  sram   sp size=1024 map=work
  stream sb line=32 depth=8 map=speech
  dram   m rowhit=8 rowmiss=20 rowbytes=1024 banks=2 policy=closed
  default l2
}
connect {
  link a comp=ahb32 channels=cpu:l1,cpu:l2,cpu:ld,cpu:sp,cpu:sb
  link b comp=off16 channels=l1:dram,l2:dram,ld:dram,sb:dram
}
`,
		`
memory {
  cache l1 size=1024 line=32 assoc=2
  l2    l2 size=32768 line=32 assoc=4
  dram  m  rowhit=8 rowmiss=20 rowbytes=2048 banks=4
  default l1
}
connect {
  link a comp=ahb32 channels=cpu:l1,l1:l2
  link b comp=off32 channels=l2:dram
}
`,
		"memory {\n  dram m rowhit=8 rowmiss=20 rowbytes=2048 banks=4\n  default dram\n}\nconnect {\n  link x comp=off32 channels=cpu:dram\n}\n",
		"memory {\n}\n",
		"",
	} {
		f.Add(s)
	}
	tr := fuzzTrace()
	lib := connect.Library()
	f.Fuzz(func(t *testing.T, src string) {
		sys, err := Parse(src, tr, lib)
		if err != nil {
			return
		}
		out, err := Format(sys.Mem, sys.Conn, tr)
		if err != nil {
			t.Fatalf("parsed system does not format: %v\nsource:\n%s", err, src)
		}
		sys2, err := Parse(out, tr, lib)
		if err != nil {
			t.Fatalf("formatted system does not parse: %v\nformatted:\n%s", err, out)
		}
		out2, err := Format(sys2.Mem, sys2.Conn, tr)
		if err != nil {
			t.Fatalf("re-parsed system does not format: %v", err)
		}
		if out2 != out {
			t.Fatalf("format is not a fixed point:\nfirst:\n%s\nsecond:\n%s", out, out2)
		}
	})
}
