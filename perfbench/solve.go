package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/fem"
	"parapre/internal/obs"
	"parapre/internal/precond"
	"parapre/internal/sparse"
)

// solveWorkload is a closed loop of one caller solving one assembled
// problem, either one-shot (core.Solve pays partitioning and setup on
// every op) or through one core.Session over a sequence of time steps.
type solveWorkload struct {
	caseName  string
	size      int
	tinySize  int
	procs     int
	kind      precond.Kind
	oneShot   bool
	inputs    int // distinct right-hand sides (oneShot) or time steps per cycle
	setupReps int // core.NewSession calls setup_s takes its median over
}

var (
	oneshotSchur2 = solveWorkload{
		caseName: "tc1-poisson2d", size: 257, tinySize: 33, procs: 8,
		kind: precond.KindSchur2, oneShot: true, inputs: 3, setupReps: 5,
	}
	timestepBlock2 = solveWorkload{
		caseName: "tc4-heat3d", size: 33, tinySize: 9, procs: 4,
		kind: precond.KindBlock2, inputs: 4, setupReps: 5,
	}
)

// rhsNoise is the relative size of the seeded perturbation of the
// problem's right-hand side. It is small so that every seed poses the
// same numerical difficulty and only the data differ.
const rhsNoise = 1e-2

// opStats accumulates what the op loop measures.
type opStats struct {
	walls    []float64
	restarts []float64
	msgs     []float64 // Σ ranks messages per iteration
	kib      []float64 // Σ ranks KiB sent per iteration
	comm     []float64 // Σ ranks modeled communication / Σ ranks clock
	byInput  map[int]fingerprint
	elapsed  float64
	alloc    float64 // bytes allocated during the loop
}

func newOpStats() *opStats { return &opStats{byInput: map[int]fingerprint{}} }

// record folds one answered op into the stats.
func (s *opStats) record(wall float64, input int, res *core.Result) {
	s.walls = append(s.walls, wall)
	s.restarts = append(s.restarts, float64(res.Restarts))
	s.byInput[input] = fingerprint{res.Iterations, res.SetupTime, res.SolveTime}
	var msgs, bytes, comm, clock float64
	for _, st := range res.PerRank {
		msgs += float64(st.MsgsSent)
		bytes += float64(st.BytesSent)
		comm += st.CommTime
		clock += st.Clock
	}
	it := float64(max(res.Iterations, 1))
	s.msgs = append(s.msgs, msgs/it)
	s.kib = append(s.kib, bytes/1024/it)
	if clock > 0 {
		s.comm = append(s.comm, comm/clock)
	}
}

// fingerprintMeans averages the deterministic values over the distinct
// inputs (not over ops, so they do not depend on how many ops fit).
func (s *opStats) fingerprintMeans() (iters, setup, solve float64) {
	for _, fp := range s.byInput {
		iters += float64(fp.Iterations)
		setup += fp.ModelSetup
		solve += fp.ModelSolve
	}
	n := float64(max(len(s.byInput), 1))
	return iters / n, setup / n, solve / n
}

func runSolve(o options, w solveWorkload, r *report) error {
	tr := newTracer()
	c, err := cases.ByName(w.caseName)
	if err != nil {
		return err
	}
	size := w.size
	if o.tiny {
		size = w.tinySize
	}
	var prob *core.Problem
	assembleS := tr.timed("cases.Build", -1, -1, func() { prob = c.Build(size) })
	cfg := core.DefaultConfig(w.procs, w.kind)
	cfg.KeepX = true
	r.header["case"] = w.caseName
	r.header["size"] = size
	r.header["n"] = prob.A.Rows
	r.header["nnz"] = prob.A.NNZ()
	r.header["procs"] = w.procs
	r.header["precond"] = string(w.kind)
	r.header["matrix_bytes"] = csrBytes(prob.A)

	inputs, next, err := solveInputs(o.seed, w, prob)
	if err != nil {
		return err
	}

	// Setup: setup_s is the median of several sessions built on the
	// assembled problem; the heap is read with the last one alive.
	var sess *core.Session
	var setupTimes []float64
	setup := tr.begin("setup", -1, -1)
	for i := 0; i < w.setupReps; i++ {
		sess = nil
		runtime.GC()
		d := tr.timed("core.NewSession", setup, -1, func() { sess, err = core.NewSession(prob, cfg) })
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, d)
	}
	tr.end(setup)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeap := float64(ms.HeapAlloc) / 1e6
	if w.oneShot {
		sess = nil // core.Solve builds its own setup on every op
	}

	// loop runs ops for the given seconds (and at least two cycles of
	// inputs), checking each; agg non-nil makes it a traced loop.
	opID := 0
	name := "core.Solve"
	if !w.oneShot {
		name = "core.Session.SolveWith"
	}
	loop := func(seconds float64, st *opStats, agg *traceAgg) {
		span := tr.begin(fmt.Sprintf("loop traced=%v", agg != nil), -1, -1)
		defer tr.end(span)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		deadline := start.Add(time.Duration(seconds * float64(time.Second)))
		step := 0
		var prevX []float64
		for n := 0; n < 2*w.inputs || time.Now().Before(deadline); n++ {
			var b []float64
			if next != nil && step > 0 {
				b = next(prevX)
			} else {
				b = inputs[step]
			}
			var col *obs.Collector
			if agg != nil {
				col = obs.NewCollector()
			}
			var res *core.Result
			var err error
			wall := tr.timed(name, span, opID, func() {
				if w.oneShot {
					ocfg := cfg
					ocfg.Collector = col
					p := *prob
					p.B = b
					res, err = core.Solve(&p, ocfg)
				} else {
					res, err = sess.SolveWith(b, core.SolveOptions{Collector: col})
				}
			})
			opID++
			key := fmt.Sprintf("input %d", step)
			if err == nil && res.Err != nil {
				err = res.Err
			}
			if err != nil {
				r.check.fail(key, err)
				step, prevX = 0, nil
				continue
			}
			st.record(wall, step, res)
			r.check.check(key, prob.A, b, res.X, res.Converged,
				fingerprint{res.Iterations, res.SetupTime, res.SolveTime})
			if agg != nil {
				agg.add(col.Events())
			}
			prevX = res.X
			step = (step + 1) % w.inputs
		}
		st.elapsed = time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		st.alloc = float64(after.TotalAlloc - before.TotalAlloc)
	}

	if !o.trace {
		st := newOpStats()
		loop(o.seconds, st, nil)
		addE2E(r, setupTimes, liveHeap, st)
		return nil
	}

	ls, err := measureLayers(tr, prob, cfg)
	if err != nil {
		return err
	}
	addLayerMetrics(r, []layerStats{ls})
	r.layer["cases.assemble_s"] = metric{assembleS, "s"}
	plain, traced := newOpStats(), newOpStats()
	agg := newTraceAgg()
	loop(o.seconds/2, plain, nil)
	loop(o.seconds/2, traced, agg)
	addTraceMetrics(r, agg, median(traced.walls)/median(plain.walls)-1)
	r.layer["dist.msgs_per_iter"] = metric{mean(plain.msgs), "count"}
	r.layer["dist.kib_per_iter"] = metric{mean(plain.kib), "KiB"}
	r.layer["dist.comm_model_frac"] = metric{mean(plain.comm), "1"}
	r.layer["krylov.restarts"] = metric{mean(plain.restarts), "count"}
	addGatewayLayerMetrics(r, nil)
	return tr.write(spanPath(o))
}

// solveInputs derives the workload's right-hand sides from the seed.
// One-shot: w.inputs perturbed copies of the problem's b. Time stepping:
// a perturbed initial b, and next(x) = M·x with the Dirichlet rows of A
// zeroed — the implicit Euler step of the heat equation the case
// assembles (A = M + Δt·K, homogeneous Dirichlet data).
func solveInputs(seed int64, w solveWorkload, prob *core.Problem) ([][]float64, func([]float64) []float64, error) {
	rng := rand.New(rand.NewSource(seed))
	dirichlet := dirichletRows(prob.A)
	perturbed := func() []float64 {
		b := append([]float64(nil), prob.B...)
		scale := rhsNoise * sparse.Norm2(b) / math.Sqrt(float64(len(b)))
		for i := range b {
			if !dirichlet[i] {
				b[i] += scale * (2*rng.Float64() - 1)
			}
		}
		return b
	}
	if w.oneShot {
		in := make([][]float64, w.inputs)
		for i := range in {
			in[i] = perturbed()
		}
		return in, nil, nil
	}
	if prob.Mesh == nil {
		return nil, nil, fmt.Errorf("time stepping needs the mesh of %s", prob.Name)
	}
	mass := fem.AssembleMass(prob.Mesh)
	next := func(x []float64) []float64 {
		b := make([]float64, len(x))
		mass.MulVecTo(b, x)
		for i, d := range dirichlet {
			if d {
				b[i] = 0
			}
		}
		return b
	}
	return [][]float64{perturbed()}, next, nil
}

// dirichletRows marks the rows fem.ApplyDirichlet turned into identity
// rows: a unit diagonal and every other stored entry zero.
func dirichletRows(a *sparse.CSR) []bool {
	out := make([]bool, a.Rows)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		ok := true
		for k, j := range cols {
			//lint:ignore floatcmp fem.ApplyDirichlet writes exactly 1 and 0 into these rows
			if (j == i && vals[k] != 1) || (j != i && vals[k] != 0) {
				ok = false
				break
			}
		}
		out[i] = ok
	}
	return out
}

// addE2E reports the end-to-end metrics shared by every workload.
func addE2E(r *report, setupTimes []float64, liveHeap float64, st *opStats) {
	iters, mSetup, mSolve := st.fingerprintMeans()
	tl := tailOf(st.walls)
	ops := float64(len(st.walls))
	r.e2e["setup_s"] = metric{median(setupTimes), "s"}
	r.e2e["time_to_solution_s"] = metric{median(st.walls), "s"}
	r.e2e["time_to_solution_s_tail"] = metric{tl.Value, "s"}
	r.e2e["ops_per_s"] = metric{ops / st.elapsed, "1/s"}
	r.e2e["iterations"] = metric{iters, "count"}
	r.e2e["model_setup_s"] = metric{mSetup, "virtual_s"}
	r.e2e["model_solve_s"] = metric{mSolve, "virtual_s"}
	r.e2e["true_rel_residual_max"] = metric{r.check.maxRes, "1"}
	r.e2e["live_heap_mb"] = metric{liveHeap, "MB"}
	r.e2e["alloc_mb_per_op"] = metric{st.alloc / 1e6 / math.Max(ops, 1), "MB"}
	r.details["time_to_solution_s_tail"] = tl
	r.details["ops"] = len(st.walls)
	r.details["setup_samples"] = len(setupTimes)
}

// addTraceMetrics reports the self time of the program's obs spans and
// the wall-over-model calibration per kind, plus the tracing overhead.
func addTraceMetrics(r *report, agg *traceAgg, overhead float64) {
	ops := float64(max(agg.ops, 1))
	for _, k := range traceKinds {
		r.layer["trace."+k+".self_s"] = metric{agg.wall[k] / ops, "s"}
		r.layer["trace."+k+".self_max_rank_s"] = metric{agg.maxRank[k] / ops, "s"}
		r.layer["trace."+k+".count"] = metric{float64(agg.count[k]) / ops, "count"}
		// A kind whose modeled time is all in its children (an exchange
		// is its sends and receives) has no self time of its own to
		// calibrate against; it reports 0.
		ratio := 0.0
		if agg.virt[k] > 1e-9*agg.virtAll[k] {
			ratio = agg.wall[k] / agg.virt[k]
		}
		r.layer["core.wall_over_model."+k] = metric{ratio, "1"}
	}
	r.layer["obs.overhead_frac"] = metric{overhead, "1"}
	r.details["traced_ops"] = agg.ops
}

func spanPath(o options) string {
	return fmt.Sprintf("%s/%s-seed%d.json", o.spanDir, o.workload, o.seed)
}
