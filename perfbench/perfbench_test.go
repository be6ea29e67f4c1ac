package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"fairassign"
)

// TestSmoke runs every workload at the tiny sizes, untraced and traced,
// and checks that it passes its gate and reports every declared metric
// with its unit.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := execute(name, config{
				seed: 7, seconds: 200 * time.Millisecond, trace: trace,
				scratch: t.TempDir(), sizes: tinySizes,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			cpu := 0.0
			for k, unit := range want {
				m, ok := res.Metrics[k]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, k, m, unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
				}
				if len(k) > 4 && k[:4] == "cpu." {
					cpu += m.Value
				}
			}
			if trace && cpu != 0 && math.Abs(cpu-1) > 1e-9 {
				t.Errorf("%s: cpu shares sum to %v", name, cpu)
			}
		}
	}
}

// TestGateCatchesSwappedPairs corrupts a correct matching by swapping
// the objects of two pairs and expects the serving gate to refuse it.
func TestGateCatchesSwappedPairs(t *testing.T) {
	r := newRun("gate", config{seed: 3, sizes: tinySizes}, t.TempDir())
	objs := anticorrelated(r.rng, 500, 1)
	funcs := users(r.rng, 40, 1)
	good, err := coldMatching(objs, funcs)
	if err != nil {
		t.Fatal(err)
	}
	q := funcs[0]
	read, err := fairassign.TopK(objs, q, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := gateServe(good, objs, funcs, q, read, 10); err != nil {
		t.Fatalf("gate refused the correct matching: %v", err)
	}
	bad := append([]fairassign.Pair(nil), good...)
	bad[0].ObjectID, bad[1].ObjectID = bad[1].ObjectID, bad[0].ObjectID
	if err := gateServe(bad, objs, funcs, q, read, 10); err == nil {
		t.Fatal("gate accepted a matching with two pairs' objects swapped")
	}
	worse := append([]fairassign.Ranked(nil), read...)
	worse[0], worse[1] = worse[1], worse[0]
	if err := gateServe(good, objs, funcs, q, worse, 10); err == nil {
		t.Fatal("gate accepted a top-k answer in the wrong order")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the checkout root
// declares exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, got []entry, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, program reports %d", kind, len(got), len(want))
		}
		for _, e := range got {
			if want[e.Name] != e.Unit {
				t.Errorf("%s: declared %s in %q, program reports %q", kind, e.Name, e.Unit, want[e.Name])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
