package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// tiny runs a workload at self-test sizes.
func tiny(t *testing.T, name string, trace, corrupt bool) (result, map[string]any) {
	t.Helper()
	p := params{seed: 3, seconds: 0.4, trace: trace, dir: t.TempDir(), short: true, corrupt: corrupt}
	res, detail, err := execute(context.Background(), name, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, detail
}

// TestEveryMetricEmitted runs every workload untraced and traced at tiny
// sizes and asserts each named metric is printed with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, detail := tiny(t, name, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d (%v)",
					name, trace, res.Correct, res.Attempted, res.Failed, detail["check_error"])
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %q", name, trace, s.name, m, ok, s.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, s.name, m.Value)
				}
			}
			if _, ok := detail["env"].(fingerprint); !ok {
				t.Errorf("%s: result carries no environment fingerprint", name)
			}
		}
	}
}

// TestWrongExpectationFails perturbs one expected outcome by one ulp and
// asserts that the output check catches it and the run reports no
// numbers.
func TestWrongExpectationFails(t *testing.T) {
	for name := range workloads {
		res, detail := tiny(t, name, false, true)
		if res.Correct || res.Failed == 0 || len(res.Metrics) != 0 {
			t.Errorf("%s with a corrupted reference: correct=%v failed=%d metrics=%d, want a failed check and no numbers",
				name, res.Correct, res.Failed, len(res.Metrics))
		}
		if msg, _ := detail["check_error"].(string); msg == "" {
			t.Errorf("%s: failed run names no check error", name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names, have []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark %d", kind, len(got), len(want))
			return
		}
		for i, s := range want {
			if got[i].Name != s.name || got[i].Unit != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, s.name, s.unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
