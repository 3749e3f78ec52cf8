package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"memorex/internal/core"
	"memorex/internal/trace"
)

// frontPoint is one design of a cost/performance front as the output
// checks and the golden files record it. encoding/json prints each
// float64 in the shortest form that parses back to the same bits, so
// equal encodings mean bit-identical figures.
type frontPoint struct {
	Label   string  `json:"label"`
	Cost    float64 `json:"cost_gates"`
	Latency float64 `json:"latency_cycles_per_access"`
	Energy  float64 `json:"energy_nj_per_access"`
}

// encodeFront is the canonical encoding of a front.
func encodeFront(front []core.DesignPoint) []byte {
	pts := make([]frontPoint, len(front))
	for i := range front {
		dp := &front[i]
		pts[i] = frontPoint{Label: dp.Label(), Cost: dp.Cost, Latency: dp.Latency, Energy: dp.Energy}
	}
	return encodePoints(pts)
}

// encodePoints encodes front points one per line, keeping the "<->" of
// connectivity labels readable in the golden files.
func encodePoints(pts []frontPoint) []byte {
	var buf bytes.Buffer
	buf.WriteString("[")
	for i, p := range pts {
		if i > 0 {
			buf.WriteString(",")
		}
		buf.WriteString("\n")
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.Encode(p) // a plain struct always encodes
		buf.Truncate(buf.Len() - 1)
	}
	buf.WriteString("\n]")
	return buf.Bytes()
}

// verifyFront re-simulates every front design with the one-phase
// reference simulator and requires bit-identical cost, latency and
// energy.
func verifyFront(t *trace.Trace, front []core.DesignPoint) error {
	if len(front) == 0 {
		return errors.New("empty cost/performance front")
	}
	for i := range front {
		dp := &front[i]
		ref, _, err := core.FullSimulate(t, dp.MemArch, dp.Conn)
		if err != nil {
			return fmt.Errorf("%s: reference simulation: %w", dp.Label(), err)
		}
		if !sameBits(ref.Cost, dp.Cost) || !sameBits(ref.Latency, dp.Latency) || !sameBits(ref.Energy, dp.Energy) {
			return fmt.Errorf("%s: (cost, latency, energy) = (%v, %v, %v), reference simulator gives (%v, %v, %v)",
				dp.Label(), dp.Cost, dp.Latency, dp.Energy, ref.Cost, ref.Latency, ref.Energy)
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// repeats remembers the output of each request's first run and requires
// every later run of the request to produce the same bytes.
type repeats struct {
	first map[string][]byte
	keys  []string // first-run order
}

func newRepeats() *repeats { return &repeats{first: map[string][]byte{}} }

// observe records out as the first run of key, or compares it with the
// first run. It reports whether this was the first run.
func (r *repeats) observe(key string, out []byte) (first bool, err error) {
	prev, ok := r.first[key]
	if !ok {
		r.first[key] = out
		r.keys = append(r.keys, key)
		return true, nil
	}
	if !bytes.Equal(prev, out) {
		return false, fmt.Errorf("%s: output differs from the request's first run", key)
	}
	return false, nil
}

// goldenFile holds, per workload and request key, the expected fronts of
// one seed.
type goldenFile map[string]map[string]json.RawMessage

func goldenPath(root string, seed int64) string {
	return filepath.Join(root, "bench", "golden", fmt.Sprintf("seed-%d.json", seed))
}

// readGolden loads a golden file; a missing file is an empty set.
func readGolden(path string) (goldenFile, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return goldenFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	g := goldenFile{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// check compares a front encoding with the golden entry of key.
func (g goldenFile) check(workload, key string, enc []byte) error {
	want, ok := g[workload][key]
	if !ok {
		return fmt.Errorf("%s: no golden front for %s", workload, key)
	}
	var pts []frontPoint
	if err := json.Unmarshal(want, &pts); err != nil {
		return fmt.Errorf("%s: golden front for %s: %w", workload, key, err)
	}
	if !bytes.Equal(encodePoints(pts), enc) {
		return fmt.Errorf("%s: front of %s differs from the golden front", workload, key)
	}
	return nil
}

// writeGolden replaces one workload's fronts in the golden file.
func writeGolden(path, workload string, fronts map[string][]byte) error {
	g, err := readGolden(path)
	if err != nil {
		return err
	}
	g[workload] = map[string]json.RawMessage{}
	for k, enc := range fronts {
		g[workload][k] = enc
	}
	// Written by hand, keeping each front in its encodePoints form (one
	// design per line), so a changed design shows as one changed line.
	var buf bytes.Buffer
	buf.WriteString("{")
	for i, w := range sortedKeys(g) {
		if i > 0 {
			buf.WriteString(",")
		}
		fmt.Fprintf(&buf, "\n%q: {", w)
		for j, k := range sortedKeys(g[w]) {
			if j > 0 {
				buf.WriteString(",")
			}
			fmt.Fprintf(&buf, "\n%q: %s", k, g[w][k])
		}
		buf.WriteString("\n}")
	}
	buf.WriteString("\n}\n")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
