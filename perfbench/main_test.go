package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyRun(t *testing.T, workload string, trace, perturb bool) (*result, map[string]any) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(options{
		workload: workload, seed: 3, seconds: 0.2, trace: trace,
		tiny: true, perturb: perturb, spanDir: t.TempDir(),
	}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	var details map[string]any
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# details "); ok {
			if err := json.Unmarshal([]byte(rest), &details); err != nil {
				t.Fatal(err)
			}
		}
	}
	if details == nil {
		t.Fatalf("%s: no details line in\n%s", workload, out.String())
	}
	return res, details
}

// TestEveryMetricPrinted runs every workload at a tiny size, untraced and
// traced, and checks that each metric BENCHMARK.json names is printed
// with its unit and every answer passes the gate.
func TestEveryMetricPrinted(t *testing.T) {
	c := loadContract(t)
	for _, w := range c.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
		for _, trace := range []bool{false, true} {
			res, _ := tinyRun(t, w.Name, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d",
					w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestPerturbedSolutionFails corrupts every solution before the gate and
// checks that each op is counted as failed.
func TestPerturbedSolutionFails(t *testing.T) {
	for name := range workloads {
		res, details := tinyRun(t, name, false, true)
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want every op failed",
				name, res.Correct, res.Attempted, res.Failed)
		}
		if ff, _ := details["failed_frac"].(float64); ff != 1 {
			t.Errorf("%s: failed_frac = %v, want 1", name, details["failed_frac"])
		}
	}
}
