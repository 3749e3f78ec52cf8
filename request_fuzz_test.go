package memorex

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzExploreRequestJSON fuzzes the wire format the daemon admits:
// arbitrary bytes go through the same decode → Validate pipeline as a
// memorexd POST /v1/jobs body, and a request that survives both must
// resolve over the paper defaults without error. Nothing on this path may
// panic — a malformed submission is a 400, never a daemon crash.
func FuzzExploreRequestJSON(f *testing.F) {
	seeds := []string{
		`{"benchmark":"compress"}`,
		`{"benchmark":"vocoder","strategy":"ga","search":{"seed":42,"budget":600,"population":24}}`,
		`{"benchmark":"compress","strategy":"sa","search":{"mutation_rate":0.25,"crossover_rate":0.7,"init_temp":0.2,"cooling":0.95}}`,
		`{"benchmark":"li","strategy":"full"}`,
		`{"benchmark":"compress","strategy":"neighborhood","keep_per_arch":3}`,
		`{"strategy":"tabu"}`,
		`{"benchmark":"compress","search":{"budget":-1}}`,
		`{"benchmark":"compress","search":{"cooling":1.5}}`,
		`{"benchmark":"vocoder","workload":{"scale":2,"seed":7},"max_assign_per_level":0,"exact":true}`,
		`{"benchmark":"compress","constraints":[{"scenario":"power","limit":1.5}]}`,
		`{"benchmark":"compress","sampling":{"on_window":500,"off_ratio":9}}`,
		`{"benchmark": `,
		`{"benchmark":"compress","bogus":1}`,
		`{"benchmark":"compress","library":[{"name":"b","class":"ahb","width_bytes":4,"arb_cycles":1,"beat_cycles":1,"max_ports":4,"on_chip":true,"energy_per_byte_nj":0.1,"base_gates":100,"bogus_key":7},{"name":"o","class":"offchip","width_bytes":4,"arb_cycles":2,"beat_cycles":1,"max_ports":8,"energy_per_byte_nj":0.5,"base_gates":50}]}`,
		`{"benchmark":"compress","library":[{"name":"b","class":"ahb","width_bytes":4,"arb_cycles":1,"beat_cycles":1,"max_ports":4,"on_chip":true,"energy_per_byte_nj":0.1,"base_gates":100},{"name":"o","class":"offchip","split":true,"pipelined":true,"width_bytes":4,"arb_cycles":70,"beat_cycles":1,"max_ports":8,"energy_per_byte_nj":0.5,"base_gates":50}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var req ExploreRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return // a parse rejection is the daemon's 400 path
		}
		err := req.Validate()
		if err != nil {
			return // a validation rejection is the daemon's 400 path
		}
		// Invariant: a request that validates is runnable — resolving
		// it over the paper defaults cannot fail.
		if _, err := resolve(req); err != nil {
			t.Errorf("validated request failed to resolve: %v\nrequest: %s", err, data)
		}
	})
}
