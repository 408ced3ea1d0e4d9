package main

import (
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the self-check compares against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// printed runs one invocation and decodes the result line it would print.
func printed(t *testing.T, w workload, o options) result {
	t.Helper()
	res, err := run(w, o)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	return back
}

// TestEveryMetricPrinted runs each workload once untraced and once traced
// at the shortest length and checks that every metric BENCHMARK.json names
// is printed with its unit, and that the seed reproduces its committed
// fingerprint.
func TestEveryMetricPrinted(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			t.Fatalf("workload %q in BENCHMARK.json is unknown", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			if fp, err := committedFingerprint(w.name, 3); err != nil || fp == "" {
				t.Fatalf("no committed fingerprint for seed 3 (%v)", err)
			}
			for _, tc := range []struct {
				trace bool
				want  []struct{ Name, Unit string }
			}{{false, s.EndToEnd}, {true, s.PerLayer}} {
				res := printed(t, w, options{seed: 3, trace: tc.trace, minReps: 1})
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", tc.trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(tc.want) {
					t.Errorf("trace=%v: %d metrics printed, BENCHMARK.json names %d", tc.trace, len(res.Metrics), len(tc.want))
				}
				for _, m := range tc.want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s printed as %+v (present %v), want unit %q", tc.trace, m.Name, got, ok, m.Unit)
					}
				}
			}
		})
	}
}

// TestPerturbedFingerprintFails checks that a repetition whose outcome
// differs from the expected fingerprint is reported as a failed operation.
func TestPerturbedFingerprintFails(t *testing.T) {
	w, _ := workloadByName("host-cxl-place")
	res := printed(t, w, options{seed: 3, minReps: 2})
	if !res.Correct {
		t.Fatalf("unperturbed run failed: %+v", res)
	}
	res = printed(t, w, options{seed: 3, minReps: 2, expect: "0123456789abcdef"})
	if res.Correct || res.Failed != res.Attempted || res.Attempted != 2 {
		t.Fatalf("perturbed fingerprint: correct=%v attempted=%d failed=%d, want every repetition failed",
			res.Correct, res.Attempted, res.Failed)
	}
}
