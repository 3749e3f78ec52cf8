package memorex

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"memorex/internal/connect"
)

// TestExploreRequestJSONRoundTrip is the wire-format contract: a fully
// populated request survives encode/decode byte-for-byte, and the
// decoder distinguishes absent config blocks (inherit) from present
// zero ones (override).
func TestExploreRequestJSONRoundTrip(t *testing.T) {
	cap := 0
	req := ExploreRequest{
		Benchmark: "vocoder",
		JobID:     "job-000007",
		Workload:  &WorkloadConfig{Scale: 2, Seed: 7},
		APEX: &APEXConfig{
			CacheSizes:  []int{2 << 10},
			CacheAssocs: []int{2},
			CacheLines:  []int{32},
			MaxCustom:   1,
			SRAMLimit:   80 << 10,
			MaxSelected: 2,
		},
		Sampling:          &SamplingConfig{OnWindow: 500, OffRatio: 9},
		Library:           connect.Library(),
		KeepPerArch:       3,
		MaxAssignPerLevel: &cap,
		Strategy:          "ga",
		Search:            &SearchConfig{Seed: 7, Budget: 64, Population: 8},
		Constraints:       []Constraint{{Scenario: ScenarioPower, Limit: 1.5}},
	}

	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back ExploreRequest
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("round-trip decode: %v\n%s", err, blob)
	}
	blob2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Errorf("round trip not stable:\n%s\n%s", blob, blob2)
	}
	if back.MaxAssignPerLevel == nil || *back.MaxAssignPerLevel != 0 {
		t.Error("explicit MaxAssignPerLevel=0 (exhaustive) lost in round trip")
	}
	if err := back.Validate(); err != nil {
		t.Errorf("round-tripped request invalid: %v", err)
	}

	// The minimal request: one benchmark, everything inherited.
	var min ExploreRequest
	if err := json.Unmarshal([]byte(`{"benchmark":"compress"}`), &min); err != nil {
		t.Fatal(err)
	}
	if min.Workload != nil || min.APEX != nil || min.Sampling != nil ||
		min.Library != nil || min.MaxAssignPerLevel != nil || min.Search != nil {
		t.Errorf("minimal request decoded with non-inherited blocks: %+v", min)
	}
	if err := min.Validate(); err != nil {
		t.Errorf("minimal request invalid: %v", err)
	}
}

// TestExploreRequestValidate enumerates the rejection surface.
func TestExploreRequestValidate(t *testing.T) {
	neg := -1
	// A split, pipelined off-chip entry whose arbitration outlasts the
	// reservation-table window: each field alone is plausible, but no
	// table can hold it.
	longArb := connect.Library()
	for i := range longArb {
		if longArb[i].Name == "off32" {
			longArb[i].Split, longArb[i].Pipelined, longArb[i].ArbCycles = true, true, 70
		}
	}
	cases := []struct {
		name string
		req  ExploreRequest
		want string
	}{
		{"empty", ExploreRequest{}, "needs a benchmark or a trace"},
		{"unknown benchmark", ExploreRequest{Benchmark: "quake3"}, "unknown benchmark"},
		{"bad workload", ExploreRequest{Benchmark: "vocoder", Workload: &WorkloadConfig{Scale: -1}}, "workload"},
		{"bad sampling", ExploreRequest{Benchmark: "vocoder", Sampling: &SamplingConfig{OnWindow: -5}}, "sampling"},
		{"bad library", ExploreRequest{Benchmark: "vocoder", Library: []ConnComponent{{}}}, "library"},
		{"arbitration beyond window", ExploreRequest{Benchmark: "vocoder", Library: longArb}, "stage window"},
		{"negative keep", ExploreRequest{Benchmark: "vocoder", KeepPerArch: -1}, "KeepPerArch"},
		{"negative cap", ExploreRequest{Benchmark: "vocoder", MaxAssignPerLevel: &neg}, "MaxAssignPerLevel"},
		{"bad strategy", ExploreRequest{Benchmark: "vocoder", Strategy: "tabu"}, "strategy"},
		{"bad search", ExploreRequest{Benchmark: "vocoder", Search: &SearchConfig{Budget: -1}}, "search"},
		{"bad scenario", ExploreRequest{Benchmark: "vocoder", Constraints: []Constraint{{Scenario: "speed", Limit: 1}}}, "unknown scenario"},
		{"bad limit", ExploreRequest{Benchmark: "vocoder", Constraints: []Constraint{{Scenario: ScenarioCost, Limit: 0}}}, "limit must be positive"},
	}
	for _, tc := range cases {
		err := tc.req.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestExplorerDoRequest runs Do with per-request overrides and
// constraints: the request's config must win over the defaults, the
// constraints must land in Report.Selections in order, and the
// selections must appear in the report JSON.
func TestExplorerDoRequest(t *testing.T) {
	ex, err := NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	req := fastRequest("vocoder")
	req.KeepPerArch = 2
	req.Constraints = []Constraint{
		{Scenario: ScenarioCost, Limit: 1e9},  // generous: everything qualifies
		{Scenario: ScenarioPerf, Limit: 1e-9}, // impossible: empty selection
	}
	rep, err := ex.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Options.ConEx.KeepPerArch; got != 2 {
		t.Errorf("request KeepPerArch override lost: report ran with %d", got)
	}
	if len(rep.Selections) != 2 {
		t.Fatalf("got %d selections, want 2", len(rep.Selections))
	}
	if s := rep.Selections[0]; s.Scenario != ScenarioCost || len(s.Points) == 0 {
		t.Errorf("generous cost constraint selected %d designs, want some", len(s.Points))
	}
	if s := rep.Selections[1]; s.Scenario != ScenarioPerf || len(s.Points) != 0 {
		t.Errorf("impossible perf constraint selected %d designs, want none", len(s.Points))
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rj, err := ReadReportJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rj.Selections) != 2 || rj.Selections[0].Scenario != ScenarioCost {
		t.Errorf("selections missing from report JSON: %+v", rj.Selections)
	}

	// An invalid request is rejected before any work happens.
	if _, err := ex.Do(context.Background(), ExploreRequest{}); err == nil {
		t.Error("Do accepted an empty request")
	}
}

// TestExplorerDoHeuristicStrategy runs the heuristic drivers through
// the job-oriented request path: the request's strategy and search
// config must reach the driver, the search provenance must land in the
// report and survive the JSON round trip, and an enumeration run must
// carry no provenance.
func TestExplorerDoHeuristicStrategy(t *testing.T) {
	ex, err := NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	req := fastRequest("vocoder")
	req.Strategy = "ga"
	req.Search = &SearchConfig{Seed: 11, Budget: 60, Population: 8}
	rep, err := ex.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Search == nil {
		t.Fatal("heuristic run produced no search provenance")
	}
	if rep.Search.Strategy != "ga" || rep.Search.Seed != 11 || rep.Search.Budget != 60 {
		t.Errorf("provenance = %+v, want ga/11/60", rep.Search)
	}
	if rep.Search.Evals <= 0 || rep.Search.Evals > 60 {
		t.Errorf("evals %d outside (0, 60]", rep.Search.Evals)
	}
	if len(rep.ConEx.Combined) == 0 || len(rep.ConEx.CostPerfFront) == 0 {
		t.Fatalf("heuristic run produced %d designs, front %d",
			len(rep.ConEx.Combined), len(rep.ConEx.CostPerfFront))
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rj, err := ReadReportJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rj.Search == nil || rj.Search.Strategy != "ga" || rj.Search.Seed != 11 ||
		rj.Search.Evals != rep.Search.Evals {
		t.Errorf("report JSON search provenance = %+v, want %+v", rj.Search, rep.Search)
	}

	// The default (pruned) strategy reports no search provenance.
	plain, err := ex.Do(context.Background(), fastRequest("vocoder"))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Search != nil {
		t.Errorf("pruned run reported search provenance %+v", plain.Search)
	}
}

// TestExplorerCloseIdempotent hammers Close from many goroutines: one
// result, every call agreeing, and runs after Close still work (they
// just lose their events).
func TestExplorerCloseIdempotent(t *testing.T) {
	ex, err := NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ex.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Errorf("Close call %d returned %v, others %v", i, err, errs[0])
		}
	}
	if _, err := ex.Do(context.Background(), fastRequest("vocoder")); err != nil {
		t.Errorf("Do after Close failed: %v", err)
	}
}

// TestRequestWireFields pins the JSON keys a submission may carry:
// every key of ExploreRequest and of its nested blocks, read from the
// struct tags (a library entry's, sorted, from its wire encoding,
// which connect.Component writes itself). Adding or retiring a knob changes
// this list, so it shows up as a reviewed diff.
func TestRequestWireFields(t *testing.T) {
	want := []string{
		"benchmark",
		"job_id",
		"workload", "workload.scale", "workload.seed",
		"apex", "apex.cache_sizes", "apex.cache_assocs", "apex.cache_lines",
		"apex.max_custom", "apex.sram_limit", "apex.max_selected",
		"apex.victim_lines", "apex.sweep_write_through", "apex.l2_sizes",
		"sampling", "sampling.on_window", "sampling.off_ratio",
		"library", "library.arb_cycles", "library.base_gates",
		"library.beat_cycles", "library.class", "library.energy_per_byte_nj",
		"library.gates_per_port", "library.max_ports", "library.name",
		"library.on_chip", "library.pipelined", "library.split",
		"library.width_bytes", "library.wire_gates_per_port",
		"keep_per_arch",
		"max_assign_per_level",
		"strategy",
		"search", "search.seed", "search.budget", "search.population",
		"constraints", "constraints.scenario", "constraints.limit",
	}
	got := wireKeys("", reflect.TypeOf(ExploreRequest{}))
	if !slices.Equal(got, want) {
		t.Errorf("request wire keys:\n got %q\nwant %q", got, want)
	}
}

// wireKeys lists the JSON keys of typ's encoding, each nested block's
// keys after the block's own, prefixed with the block's path.
func wireKeys(prefix string, typ reflect.Type) []string {
	for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct {
		return nil
	}
	var keys []string
	if typ.Implements(reflect.TypeFor[json.Marshaler]()) {
		data, err := json.Marshal(reflect.Zero(typ).Interface())
		if err != nil {
			panic(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(data, &fields); err != nil {
			panic(err)
		}
		for k := range fields {
			keys = append(keys, prefix+k)
		}
		slices.Sort(keys)
		return keys
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		keys = append(keys, prefix+name)
		keys = append(keys, wireKeys(prefix+name+".", f.Type)...)
	}
	return keys
}
