// Command perfbench is the repository's benchmark. It times public calls
// into each layer of parapre from outside — cases, partition, dsys,
// precond/ilu, sparse, krylov/dist, core, obs and gateway — on three
// workloads, checks every answer, and prints one JSON result line.
//
//	go run . --workload oneshot-schur2 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics with tracing off; with
// --trace 1 it reports the per-layer metrics from a separate traced run.
// README.md records why each workload was chosen and which end-to-end
// metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"parapre/internal/par"
)

// runLimit bounds one run, build excluded.
const runLimit = 170 * time.Second

// options are the inputs of one benchmark run. tiny and perturb are set
// only by the benchmark's own test.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // small problem sizes, for the test
	perturb  bool // corrupt every solution before the check, for the test
	spanDir  string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run hands back to main.
type report struct {
	header  map[string]any // workload shape, printed before the result
	details map[string]any // tail percentiles, failed_frac, failures
	check   *checker
	e2e     map[string]metric
	layer   map[string]metric
}

func newReport() *report {
	return &report{
		header:  map[string]any{},
		details: map[string]any{},
		e2e:     map[string]metric{},
		layer:   map[string]metric{},
	}
}

var workloads = map[string]func(options, *report) error{
	"oneshot-schur2":  func(o options, r *report) error { return runSolve(o, oneshotSchur2, r) },
	"timestep-block2": func(o options, r *report) error { return runSolve(o, timestepBlock2, r) },
	"gateway-mix":     runGateway,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	o.trace = trace == 1
	// A run that hangs must still end with an error, not a result.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	o.spanDir = ".bench_build/spans"
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload, prints the header and details lines to w,
// and returns the result line.
func run(o options, w io.Writer) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	par.SetWorkers(nproc)

	r := newReport()
	r.check = newChecker(o.perturb)
	if err := fn(o, r); err != nil {
		return nil, err
	}
	r.header["workload"] = o.workload
	r.header["seed"] = o.seed
	r.header["seconds"] = o.seconds
	r.header["trace"] = o.trace
	r.header["nproc"] = nproc
	r.header["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.header["par_workers"] = par.Workers()
	r.header["go_version"] = runtime.Version()
	r.header["commit"] = commit()
	r.header["llc_bytes"] = lastLevelCache()
	r.details["attempted"] = r.check.attempted
	r.details["failed"] = r.check.failed
	r.details["failed_frac"] = float64(r.check.failed) / float64(max(r.check.attempted, 1))
	r.details["true_rel_residual_max"] = r.check.maxRes
	if len(r.check.failures) > 0 {
		r.details["failures"] = r.check.failures
	}
	for _, line := range []struct {
		tag string
		v   map[string]any
	}{{"header", r.header}, {"details", r.details}} {
		data, err := json.Marshal(line.v)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "# %s %s\n", line.tag, data)
	}
	if r.check.attempted == 0 {
		return nil, fmt.Errorf("no op was attempted")
	}
	metrics := r.e2e
	if o.trace {
		metrics = r.layer
	}
	return &result{
		Correct:   r.check.failed == 0,
		Attempted: r.check.attempted,
		Failed:    r.check.failed,
		Metrics:   metrics,
	}, nil
}

// commit names the source revision: PERFBENCH_COMMIT when the launcher
// found one, else the VCS stamp of the build, else "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// lastLevelCache returns the size in bytes of the highest cache level
// the host reports for CPU 0, or 0 when it reports none.
func lastLevelCache() int64 {
	var best, bestLevel int64
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lvl, err1 := os.ReadFile(dir + "level")
		size, err2 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil {
			continue
		}
		var l, s int64
		var unit string
		if _, err := fmt.Sscan(strings.TrimSpace(string(lvl)), &l); err != nil {
			continue
		}
		if _, err := fmt.Sscanf(strings.TrimSpace(string(size)), "%d%s", &s, &unit); err != nil {
			continue
		}
		switch unit {
		case "K":
			s <<= 10
		case "M":
			s <<= 20
		}
		if l > bestLevel {
			best, bestLevel = s, l
		}
	}
	return best
}
