package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parapre/internal/core"
	"parapre/internal/gateway"
	"parapre/internal/obs"
)

// gatewaySpecs is the job mix: the converging (case, preconditioner)
// pairs at size 129 on 4 ranks. tc7-jump with Block 2 or Schur 1 is left
// out because it runs into the 1000-iteration cap (README.md).
var gatewaySpecs = []gateway.Spec{
	{Case: "tc1-poisson2d", Precond: "Block 2"},
	{Case: "tc1-poisson2d", Precond: "Schur 1"},
	{Case: "tc1-poisson2d", Precond: "Schur 2"},
	{Case: "tc5-convdiff", Precond: "Block 2"},
	{Case: "tc5-convdiff", Precond: "Schur 2"},
	{Case: "tc7-jump", Precond: "Schur 2"},
}

const (
	gatewaySize     = 129
	gatewayTinySize = 17
	gatewayProcs    = 4
	gatewayClients  = 2 // closed-loop clients, one tenant each
	gatewayWorkers  = 2
	gatewaySetups   = 3 // rounds of core.NewSession over the mix for setup_s
)

// jobOutcome is what one client observed of one job.
type jobOutcome struct {
	spec      int
	latency   float64 // POST sent → result event read
	queueWait float64 // POST sent → running state event read
	result    *gateway.ResultSummary
	spans     []obs.Event
	rejected  bool
	err       error
}

// gwStats collects the outcomes of every client.
type gwStats struct {
	mu        sync.Mutex
	ops       *opStats
	queueWait []float64
	latency   map[int][]float64 // by spec
	overhead  []float64
	hits      int
	rejected  int
	attempted int
	submitted map[int]bool // specs submitted before, for cache hits
}

func newGwStats(submitted map[int]bool) *gwStats {
	return &gwStats{ops: newOpStats(), submitted: submitted, latency: map[int][]float64{}}
}

func runGateway(o options, r *report) error {
	tr := newTracer()
	size := gatewaySize
	if o.tiny {
		size = gatewayTinySize
	}
	specs := make([]gateway.Spec, len(gatewaySpecs))
	probs := make([]*core.Problem, len(specs))
	var assemble float64
	var nTotal, nnzTotal int
	for i, s := range gatewaySpecs {
		s.Size, s.Procs, s.ReturnX = size, gatewayProcs, true
		if err := s.Validate(); err != nil {
			return err
		}
		specs[i] = s
		var err error
		assemble += tr.timed("cases.Build", -1, -1, func() { probs[i], err = s.BuildProblem() })
		if err != nil {
			return err
		}
		nTotal += probs[i].A.Rows
		nnzTotal += probs[i].A.NNZ()
	}
	r.header["specs"] = gatewaySpecs
	r.header["size"] = size
	r.header["procs"] = gatewayProcs
	r.header["n_mean"] = nTotal / len(specs)
	r.header["nnz_mean"] = nnzTotal / len(specs)
	r.header["clients"] = gatewayClients
	r.header["server_workers"] = gatewayWorkers

	// setup_s: the median over rounds of setting up every spec's session
	// on its assembled problem, as a cold gateway does on cache misses.
	sessions := make([]*core.Session, len(specs))
	var setupTimes []float64
	setup := tr.begin("setup", -1, -1)
	for round := 0; round < gatewaySetups; round++ {
		clear(sessions)
		runtime.GC()
		var total float64
		for i := range specs {
			var err error
			total += tr.timed("core.NewSession", setup, -1, func() {
				sessions[i], err = core.NewSession(probs[i], specs[i].BuildConfig())
			})
			if err != nil {
				return fmt.Errorf("setup %s/%s: %w", specs[i].Case, specs[i].Precond, err)
			}
		}
		setupTimes = append(setupTimes, total)
	}
	tr.end(setup)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeap := float64(ms.HeapAlloc) / 1e6

	var all []layerStats
	direct := newOpStats()
	if o.trace {
		for i := range specs {
			ls, err := measureLayers(tr, probs[i], specs[i].BuildConfig())
			if err != nil {
				return err
			}
			all = append(all, ls)
			// The job result carries no per-rank stats: take the message
			// counts from one direct solve on the spec's session.
			res, err := sessions[i].Solve(nil)
			if err != nil {
				return err
			}
			direct.record(res.Wall, i, res)
		}
	}
	// The server builds its own sessions; these would only pad the heap.
	clear(sessions)

	srv, err := gateway.New(gateway.Options{Workers: gatewayWorkers})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Drain(ctx) // every job has finished; Drain stops the workers
	}()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.Transport.(*http.Transport).CloseIdleConnections()

	submitted := map[int]bool{}
	var opID atomic.Int64
	loop := func(seconds float64, streamSpans bool, st *gwStats, agg *traceAgg) {
		loopSpan := tr.begin(fmt.Sprintf("loop traced=%v", streamSpans), -1, -1)
		defer tr.end(loopSpan)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		deadline := start.Add(time.Duration(seconds * float64(time.Second)))
		var wg sync.WaitGroup
		for c := 0; c < gatewayClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(o.seed*int64(gatewayClients) + int64(c)))
				tenant := fmt.Sprintf("tenant-%d", c)
				var order []int
				for n := 0; n < len(specs) || time.Now().Before(deadline); n++ {
					if len(order) == 0 {
						order = rng.Perm(len(specs))
					}
					i := order[0]
					order = order[1:]
					spec := specs[i]
					spec.StreamSpans = streamSpans
					span := tr.begin("gateway.job "+spec.Case+"/"+spec.Precond, loopSpan, int(opID.Add(1)-1))
					out := runJob(client, ts.URL, tenant, &spec)
					tr.end(span)
					out.spec = i
					st.add(r.check, probs, out, agg)
				}
			}(c)
		}
		wg.Wait()
		st.ops.elapsed = time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		st.ops.alloc = float64(after.TotalAlloc - before.TotalAlloc)
	}

	if !o.trace {
		st := newGwStats(submitted)
		loop(o.seconds, false, st, nil)
		addE2E(r, setupTimes, liveHeap, st.ops)
		med, tl := st.perSpec()
		r.e2e["time_to_solution_s"] = metric{med, "s"}
		r.e2e["time_to_solution_s_tail"] = metric{tl, "s"}
		delete(r.details, "time_to_solution_s_tail")
		r.details["rejected"] = st.rejected
		r.details["latency_by_spec"] = st.bySpec()
		return nil
	}

	addLayerMetrics(r, all)
	r.layer["cases.assemble_s"] = metric{assemble / float64(len(specs)), "s"}
	plain, traced := newGwStats(submitted), newGwStats(submitted)
	agg := newTraceAgg()
	loop(o.seconds/2, false, plain, nil)
	loop(o.seconds/2, true, traced, agg)
	tracedMed, _ := traced.perSpec()
	plainMed, _ := plain.perSpec()
	addTraceMetrics(r, agg, tracedMed/plainMed-1)
	r.layer["dist.msgs_per_iter"] = metric{mean(direct.msgs), "count"}
	r.layer["dist.kib_per_iter"] = metric{mean(direct.kib), "KiB"}
	r.layer["dist.comm_model_frac"] = metric{mean(direct.comm), "1"}
	r.layer["krylov.restarts"] = metric{mean(plain.ops.restarts), "count"}
	addGatewayLayerMetrics(r, plain)
	return tr.write(spanPath(o))
}

// add checks one job's answer and folds it into the stats.
func (st *gwStats) add(chk *checker, probs []*core.Problem, out jobOutcome, agg *traceAgg) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	if st.submitted[out.spec] {
		st.hits++
	}
	st.submitted[out.spec] = true
	key := fmt.Sprintf("spec %d", out.spec)
	if out.rejected {
		st.rejected++
	}
	if out.err != nil {
		chk.fail(key, out.err)
		return
	}
	res := out.result
	st.ops.walls = append(st.ops.walls, out.latency)
	st.latency[out.spec] = append(st.latency[out.spec], out.latency)
	st.ops.restarts = append(st.ops.restarts, float64(res.Restarts))
	fp := fingerprint{res.Iterations, res.SetupTime, res.SolveTime}
	st.ops.byInput[out.spec] = fp
	st.queueWait = append(st.queueWait, out.queueWait)
	st.overhead = append(st.overhead, out.latency-res.Wall)
	p := probs[out.spec]
	chk.check(key, p.A, p.B, res.X, res.Converged && res.Err == "", fp)
	if agg != nil {
		agg.add(out.spans)
	}
}

// perSpec returns the job latency's median and tail taken per spec and
// averaged over the specs. The specs' latencies differ up to tenfold, so
// percentiles of all jobs would fall between clusters and jump with the
// mix; averaging per-spec values weighs every spec the same.
func (st *gwStats) perSpec() (med, tl float64) {
	for _, lat := range st.latency {
		med += median(lat)
		tl += tailOf(lat).Value
	}
	n := float64(max(len(st.latency), 1))
	return med / n, tl / n
}

// bySpec summarizes the job latency of each spec for the details line.
func (st *gwStats) bySpec() map[string]any {
	out := map[string]any{}
	for i, lat := range st.latency {
		out[gatewaySpecs[i].Case+"/"+gatewaySpecs[i].Precond] = map[string]any{
			"median_s": median(lat), "tail": tailOf(lat), "max_s": maxOf(lat),
		}
	}
	return out
}

// addGatewayLayerMetrics reports the gateway layer; workloads that do
// not go through the gateway report zeros.
func addGatewayLayerMetrics(r *report, st *gwStats) {
	var wait, over, hit, rej float64
	if st != nil {
		wait, over = median(st.queueWait), median(st.overhead)
		hit = float64(st.hits) / float64(max(st.attempted, 1))
		rej = float64(st.rejected) / float64(max(st.attempted, 1))
	}
	r.layer["gateway.queue_wait_s"] = metric{wait, "s"}
	r.layer["gateway.overhead_s"] = metric{over, "s"}
	r.layer["gateway.cache_hit_frac"] = metric{hit, "1"}
	r.layer["gateway.rejected_frac"] = metric{rej, "1"}
}

// runJob submits one job and follows its SSE stream to the result.
func runJob(client *http.Client, base, tenant string, spec *gateway.Spec) jobOutcome {
	var out jobOutcome
	body, err := json.Marshal(spec)
	if err != nil {
		out.err = err
		return out
	}
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	var sub struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	_ = resp.Body.Close() // only read; a close error changes nothing

	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		out.rejected = true
		out.err = fmt.Errorf("429: %s", sub.Error)
		return out
	case resp.StatusCode != http.StatusAccepted:
		out.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, sub.Error)
		return out
	case err != nil:
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}

	resp, err = client.Get(base + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 256<<20)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev gateway.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			out.err = fmt.Errorf("event: %w", err)
			return out
		}
		switch {
		case ev.Type == "state" && ev.State == gateway.StateRunning:
			out.queueWait = time.Since(start).Seconds()
		case ev.Type == "span" && ev.Span != nil:
			out.spans = append(out.spans, *ev.Span)
		case ev.Type == "error":
			out.err = fmt.Errorf("job failed: %s", ev.Error)
			return out
		case ev.Type == "result" && ev.Result != nil:
			out.latency = time.Since(start).Seconds()
			out.result = ev.Result
			return out
		case ev.Type == "state" && ev.State.Terminal():
			out.err = fmt.Errorf("job ended %s without a result", ev.State)
			return out
		}
	}
	if err := sc.Err(); err != nil {
		out.err = fmt.Errorf("events: %w", err)
	} else {
		out.err = fmt.Errorf("event stream ended without a result")
	}
	return out
}
