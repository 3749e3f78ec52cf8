package connect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// componentJSON is the serialized form of a Component. Class is encoded
// by name so library files stay readable and stable.
type componentJSON struct {
	Name             string  `json:"name"`
	Class            string  `json:"class"`
	WidthBytes       int     `json:"width_bytes"`
	ArbCycles        int     `json:"arb_cycles"`
	BeatCycles       int     `json:"beat_cycles"`
	Pipelined        bool    `json:"pipelined"`
	Split            bool    `json:"split"`
	MaxPorts         int     `json:"max_ports"`
	OnChip           bool    `json:"on_chip"`
	EnergyPerByte    float64 `json:"energy_per_byte_nj"`
	BaseGates        float64 `json:"base_gates"`
	GatesPerPort     float64 `json:"gates_per_port"`
	WireGatesPerPort float64 `json:"wire_gates_per_port"`
}

var classNames = map[string]Class{
	"dedicated": Dedicated,
	"mux":       Mux,
	"apb":       APB,
	"asb":       ASB,
	"ahb":       AHB,
	"offchip":   OffChip,
}

// className reverses classNames.
func className(cl Class) (string, bool) {
	for n, c := range classNames {
		if c == cl {
			return n, true
		}
	}
	return "", false
}

// MarshalJSON serializes a component in the library wire format (class
// encoded by name), so component lists embedded in other JSON bodies —
// exploration requests, saved libraries — share one stable encoding.
func (c Component) MarshalJSON() ([]byte, error) {
	name, ok := className(c.Class)
	if !ok {
		return nil, fmt.Errorf("connect: component %q has unknown class %d", c.Name, c.Class)
	}
	return json.Marshal(componentJSON{
		Name: c.Name, Class: name, WidthBytes: c.WidthBytes,
		ArbCycles: c.ArbCycles, BeatCycles: c.BeatCycles,
		Pipelined: c.Pipelined, Split: c.Split, MaxPorts: c.MaxPorts,
		OnChip: c.OnChip, EnergyPerByte: c.EnergyPerByte,
		BaseGates: c.BaseGates, GatesPerPort: c.GatesPerPort,
		WireGatesPerPort: c.WireGatesPerPort,
	})
}

// UnmarshalJSON parses the library wire format, rejecting unknown keys
// so a misspelled one cannot silently leave its field zero. It validates
// only the class name; structural validation is the caller's job
// (ValidateLibrary).
func (c *Component) UnmarshalJSON(data []byte) error {
	var in componentJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return err
	}
	class, ok := classNames[in.Class]
	if !ok {
		return fmt.Errorf("connect: component %q: unknown class %q", in.Name, in.Class)
	}
	*c = Component{
		Name: in.Name, Class: class, WidthBytes: in.WidthBytes,
		ArbCycles: in.ArbCycles, BeatCycles: in.BeatCycles,
		Pipelined: in.Pipelined, Split: in.Split, MaxPorts: in.MaxPorts,
		OnChip: in.OnChip, EnergyPerByte: in.EnergyPerByte,
		BaseGates: in.BaseGates, GatesPerPort: in.GatesPerPort,
		WireGatesPerPort: in.WireGatesPerPort,
	}
	return nil
}

// ValidateComponent is the one definition of a valid component: a
// physically plausible library entry whose reservation tables fit the
// stage window. Library loading, request admission and every simulator
// (through Arch.Validate) check it, and the simulators rely on it: with
// at least one cycle per beat, no stage of an n >= 1-byte transfer ends
// after TransferCycles(n).
func ValidateComponent(c *Component) error {
	switch {
	case c.Name == "":
		return fmt.Errorf("connect: component with empty name")
	case c.WidthBytes <= 0:
		return fmt.Errorf("connect: %s: width must be positive", c.Name)
	case c.BeatCycles <= 0:
		return fmt.Errorf("connect: %s: beat cycles must be positive", c.Name)
	case c.ArbCycles < 0:
		return fmt.Errorf("connect: %s: negative arbitration latency", c.Name)
	case c.ArbCycles > StageWindow:
		return fmt.Errorf("connect: %s: arbitration latency %d exceeds the %d-cycle stage window",
			c.Name, c.ArbCycles, StageWindow)
	case c.MaxPorts < 2:
		return fmt.Errorf("connect: %s: needs at least 2 ports", c.Name)
	case c.EnergyPerByte <= 0:
		return fmt.Errorf("connect: %s: energy per byte must be positive", c.Name)
	case c.BaseGates <= 0:
		return fmt.Errorf("connect: %s: base gates must be positive", c.Name)
	case c.GatesPerPort < 0 || c.WireGatesPerPort < 0:
		return fmt.Errorf("connect: %s: negative per-port gates", c.Name)
	case c.Split && !c.OnChip && c.Class != OffChip:
		return fmt.Errorf("connect: %s: inconsistent chip placement", c.Name)
	}
	return nil
}

// ValidateLibrary checks every entry and name uniqueness.
func ValidateLibrary(lib []Component) error {
	if len(lib) == 0 {
		return fmt.Errorf("connect: empty library")
	}
	seen := map[string]bool{}
	hasOn, hasOff := false, false
	for i := range lib {
		if err := ValidateComponent(&lib[i]); err != nil {
			return err
		}
		if seen[lib[i].Name] {
			return fmt.Errorf("connect: duplicate component name %q", lib[i].Name)
		}
		seen[lib[i].Name] = true
		if lib[i].OnChip {
			hasOn = true
		} else {
			hasOff = true
		}
	}
	if !hasOn || !hasOff {
		return fmt.Errorf("connect: library needs both on-chip and off-chip components")
	}
	return nil
}

// WriteLibrary serializes a connectivity library as indented JSON.
func WriteLibrary(w io.Writer, lib []Component) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(lib)
}

// ReadLibrary parses and validates a JSON connectivity library, allowing
// users to explore with their own IP catalogs.
func ReadLibrary(r io.Reader) ([]Component, error) {
	var lib []Component
	if err := json.NewDecoder(r).Decode(&lib); err != nil {
		return nil, fmt.Errorf("connect: parsing library: %w", err)
	}
	if err := ValidateLibrary(lib); err != nil {
		return nil, err
	}
	return lib, nil
}
