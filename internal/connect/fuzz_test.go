package connect

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadLibrary holds ReadLibrary to "reject or round-trip, never
// panic": any input either fails to load, or loads to a library that
// WriteLibrary encodes and ReadLibrary reads back unchanged.
func FuzzReadLibrary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteLibrary(&buf, Library()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{
		`[]`,
		`[{"name":"b","class":"ahb","width_bytes":4,"arb_cycles":1,"beat_cycles":1,"max_ports":4,"on_chip":true,"energy_per_byte_nj":0.1,"base_gates":100},
		  {"name":"o","class":"offchip","width_bytes":4,"arb_cycles":2,"beat_cycles":2,"max_ports":8,"energy_per_byte_nj":1.5,"base_gates":50}]`,
		`[{"name":"x","class":"warp"}]`,
		`[{"name":"x","bogus":1}]`,
		`{"name":"x"}`,
		`[`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lib, err := ReadLibrary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteLibrary(&out, lib); err != nil {
			t.Fatalf("loaded library does not encode: %v\ninput: %s", err, data)
		}
		got, err := ReadLibrary(&out)
		if err != nil {
			t.Fatalf("encoded library does not load: %v\nencoded: %s", err, out.Bytes())
		}
		if !reflect.DeepEqual(got, lib) {
			t.Fatalf("library round trip diverged:\n got %+v\nwant %+v", got, lib)
		}
	})
}
