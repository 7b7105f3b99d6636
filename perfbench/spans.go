package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"parapre/internal/obs"
)

// span is one benchmark-side span around a public call into a layer.
// The benchmark records them from its own files only; spans inside the
// program come from obs and are folded in by traceAgg.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Op     int     `json:"op"`     // op id, -1 outside the op loop
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the run began
	End    float64 `json:"end_s"`
}

// tracer keeps every benchmark span in memory until write. It is safe
// for concurrent use (the gateway clients record from two goroutines).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// timed runs fn inside a span and returns its wall seconds.
func (t *tracer) timed(name string, parent, op int, fn func()) float64 {
	id := t.begin(name, parent, op)
	fn()
	return t.end(id)
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceKinds are the obs span kinds the per-layer report breaks out.
var traceKinds = []string{
	obs.KindPrecondApply, obs.KindOrth, obs.KindSpMV, obs.KindExchange,
	obs.KindAllReduce, obs.KindRecv, obs.KindSend,
}

// traceAgg sums the self time of the program's obs spans over traced
// ops. A span's self time is its duration minus the durations of its
// direct children; spans of one rank nest strictly (each rank is one
// goroutine), so a stack over the begin order recovers the parents.
type traceAgg struct {
	ops     int
	wall    map[string]float64 // self wall seconds, Σ over ops and ranks
	virt    map[string]float64 // self virtual seconds, Σ over ops and ranks
	virtAll map[string]float64 // inclusive virtual seconds, Σ over ops and ranks
	maxRank map[string]float64 // Σ over ops of the slowest rank's self wall
	count   map[string]int
}

func newTraceAgg() *traceAgg {
	return &traceAgg{
		wall:    map[string]float64{},
		virt:    map[string]float64{},
		virtAll: map[string]float64{},
		maxRank: map[string]float64{},
		count:   map[string]int{},
	}
}

// add folds in the spans of one traced op.
func (a *traceAgg) add(events []obs.Event) {
	a.ops++
	evs := append([]obs.Event(nil), events...)
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Rank != evs[j].Rank {
			return evs[i].Rank < evs[j].Rank
		}
		return evs[i].Seq < evs[j].Seq
	})
	// First pass: subtract each span from its parent's self time.
	wallSelf := make([]float64, len(evs))
	virtSelf := make([]float64, len(evs))
	var stack []int
	for i, e := range evs {
		if i > 0 && e.Rank != evs[i-1].Rank {
			stack = stack[:0]
		}
		for len(stack) > 0 {
			top := evs[stack[len(stack)-1]]
			if top.WStart <= e.WStart && e.WEnd <= top.WEnd {
				break
			}
			stack = stack[:len(stack)-1]
		}
		wallSelf[i] += float64(e.WEnd-e.WStart) / 1e9
		virtSelf[i] += e.Dur()
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			wallSelf[p] -= float64(e.WEnd-e.WStart) / 1e9
			virtSelf[p] -= e.Dur()
		}
		stack = append(stack, i)
	}
	// Second pass: sum per kind, and per rank for the slowest rank.
	opMax := map[string]float64{}
	rankWall := map[string]float64{}
	flush := func() {
		for k, v := range rankWall {
			opMax[k] = math.Max(opMax[k], v)
		}
		rankWall = map[string]float64{}
	}
	for i, e := range evs {
		if i > 0 && e.Rank != evs[i-1].Rank {
			flush()
		}
		a.wall[e.Kind] += wallSelf[i]
		a.virt[e.Kind] += virtSelf[i]
		a.virtAll[e.Kind] += e.Dur()
		a.count[e.Kind]++
		rankWall[e.Kind] += wallSelf[i]
	}
	flush()
	for k, v := range opMax {
		a.maxRank[k] += v
	}
}
