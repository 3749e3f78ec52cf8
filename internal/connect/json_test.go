package connect

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestLibraryJSONRoundTrip(t *testing.T) {
	lib := Library()
	var buf bytes.Buffer
	if err := WriteLibrary(&buf, lib); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLibrary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lib, got) {
		t.Fatal("library JSON round trip mismatch")
	}
}

func TestDefaultLibraryValidates(t *testing.T) {
	if err := ValidateLibrary(Library()); err != nil {
		t.Fatalf("default library invalid: %v", err)
	}
}

func TestReadLibraryRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":      "{",
		"unknown class": `[{"name":"x","class":"warp","width_bytes":4,"beat_cycles":1,"max_ports":4,"on_chip":true,"energy_per_byte_nj":0.1,"base_gates":100}]`,
		"unknown field": `[{"name":"x","class":"mux","bogus":1}]`,
		"empty":         `[]`,
		"zero width":    `[{"name":"x","class":"mux","width_bytes":0,"beat_cycles":1,"max_ports":4,"on_chip":true,"energy_per_byte_nj":0.1,"base_gates":100}]`,
		"arb beyond window": `[{"name":"b","class":"ahb","width_bytes":4,"arb_cycles":1,"beat_cycles":1,"max_ports":4,"on_chip":true,"energy_per_byte_nj":0.1,"base_gates":100},
		  {"name":"o","class":"offchip","split":true,"pipelined":true,"width_bytes":4,"arb_cycles":70,"beat_cycles":1,"max_ports":8,"energy_per_byte_nj":1.5,"base_gates":50}]`,
	}
	for name, src := range cases {
		if _, err := ReadLibrary(strings.NewReader(src)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestValidateLibraryRules(t *testing.T) {
	lib := Library()
	dup := append(append([]Component{}, lib...), lib[0])
	if err := ValidateLibrary(dup); err == nil {
		t.Fatal("duplicate names accepted")
	}
	onOnly := OnChipComponents(lib)
	if err := ValidateLibrary(onOnly); err == nil {
		t.Fatal("library without off-chip components accepted")
	}
	bad := append([]Component{}, lib...)
	bad[0].MaxPorts = 1
	if err := ValidateLibrary(bad); err == nil {
		t.Fatal("1-port component accepted")
	}
	bad = append([]Component{}, lib...)
	bad[0].EnergyPerByte = 0
	if err := ValidateLibrary(bad); err == nil {
		t.Fatal("zero-energy component accepted")
	}
	bad = append([]Component{}, lib...)
	bad[0].Name = ""
	if err := ValidateLibrary(bad); err == nil {
		t.Fatal("empty name accepted")
	}
	bad = append([]Component{}, lib...)
	bad[0].ArbCycles = -1
	if err := ValidateLibrary(bad); err == nil {
		t.Fatal("negative arbitration accepted")
	}
	bad = append([]Component{}, lib...)
	bad[0].ArbCycles = StageWindow + 1
	if err := ValidateLibrary(bad); err == nil {
		t.Fatal("arbitration beyond the stage window accepted")
	}
}

// TestComponentUnmarshalRejectsUnknownKeys: a library entry embedded
// in another JSON body (an exploration request) is decoded by
// Component.UnmarshalJSON, which the outer decoder's
// DisallowUnknownFields does not reach, so it must reject unknown keys
// itself.
func TestComponentUnmarshalRejectsUnknownKeys(t *testing.T) {
	var body struct {
		Library []Component `json:"library"`
	}
	src := `{"library":[{"name":"x","class":"mux","width_bytes":4,"beat_cycles":1,"bogus_key":7}]}`
	dec := json.NewDecoder(strings.NewReader(src))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err == nil || !strings.Contains(err.Error(), "bogus_key") {
		t.Fatalf("unknown library key: err = %v, want one naming bogus_key", err)
	}
}

func TestWriteLibraryUnknownClass(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLibrary(&buf, []Component{{Name: "x", Class: Class(42)}}); err == nil {
		t.Fatal("unknown class serialized")
	}
}

func TestCustomLibraryUsable(t *testing.T) {
	src := `[
	  {"name":"narrowbus","class":"asb","width_bytes":2,"arb_cycles":1,
	   "beat_cycles":1,"max_ports":6,"on_chip":true,
	   "energy_per_byte_nj":0.03,"base_gates":800,"gates_per_port":100,
	   "wire_gates_per_port":300},
	  {"name":"extmem","class":"offchip","width_bytes":2,"arb_cycles":2,
	   "beat_cycles":2,"max_ports":4,"on_chip":false,
	   "energy_per_byte_nj":0.4,"base_gates":2000,"gates_per_port":150,
	   "wire_gates_per_port":0}
	]`
	lib, err := ReadLibrary(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(lib) != 2 || lib[0].Name != "narrowbus" || lib[1].Class != OffChip {
		t.Fatalf("parsed library wrong: %+v", lib)
	}
	if lib[0].TransferCycles(4) != 1+2 {
		t.Fatalf("parsed component timing wrong: %d", lib[0].TransferCycles(4))
	}
}
