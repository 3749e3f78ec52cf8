package main

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"memorex/internal/core"
)

// smallFront explores a short vocoder slice and returns its front.
func smallFront(t *testing.T) *stagedRun {
	t.Helper()
	tr, err := genSlice("vocoder", 7)
	if err != nil {
		t.Fatal(err)
	}
	s := inprocSpec(wPrunedCold, 7, 0, tr)
	run, err := staged(context.Background(), &s, runtime.NumCPU(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyFront(run.rep.Trace, run.rep.ConEx.CostPerfFront); err != nil {
		t.Fatalf("unperturbed front: %v", err)
	}
	return run
}

func TestCheckerRejectsOneULP(t *testing.T) {
	run := smallFront(t)
	front := run.rep.ConEx.CostPerfFront
	orig := encodeFront(front)
	for _, field := range []string{"cost", "latency", "energy"} {
		bad := append([]core.DesignPoint(nil), front...)
		dp := &bad[len(bad)/2]
		switch field {
		case "cost":
			dp.Cost = math.Nextafter(dp.Cost, math.Inf(1))
		case "latency":
			dp.Latency = math.Nextafter(dp.Latency, math.Inf(1))
		case "energy":
			dp.Energy = math.Nextafter(dp.Energy, math.Inf(-1))
		}
		if err := verifyFront(run.rep.Trace, bad); err == nil {
			t.Errorf("%s off by one ulp passed the reference check", field)
		}

		seen := newRepeats()
		seen.observe("k", orig)
		if _, err := seen.observe("k", encodeFront(bad)); err == nil {
			t.Errorf("%s off by one ulp passed the repeat check", field)
		}

		path := filepath.Join(t.TempDir(), "golden.json")
		if err := writeGolden(path, "w", map[string][]byte{"k": orig}); err != nil {
			t.Fatal(err)
		}
		g, err := readGolden(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.check("w", "k", orig); err != nil {
			t.Errorf("golden round trip: %v", err)
		}
		if err := g.check("w", "k", encodeFront(bad)); err == nil {
			t.Errorf("%s off by one ulp passed the golden check", field)
		}
	}
}

func TestCanonicalReportDropsEngineAndMetrics(t *testing.T) {
	a := `{"benchmark":"vocoder","engine":{"evaluations":3},"metrics":{"counters":{"x":1}},"designs":[{"memory":"m"}]}`
	b := `{"benchmark": "vocoder", "engine": {"evaluations": 9}, "designs": [{"memory": "m"}]}`
	ca, err := canonicalReport([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := canonicalReport([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Errorf("canonical reports differ:\n%s\n%s", ca, cb)
	}
	if strings.Contains(string(ca), "evaluations") {
		t.Errorf("engine block survived: %s", ca)
	}
}
