package main

import (
	"fmt"

	"parapre/internal/core"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/partition"
	"parapre/internal/precond"
	"parapre/internal/sparse"
)

// layerStats are the per-layer numbers of one problem under one config,
// each taken by timing a public call of that layer from outside. Keys
// are the per-layer metric names (see layerUnits) and, for the computed
// kernel counts, the kernelKeys.
type layerStats map[string]float64

// layerUnits are the units of the layer metrics measureLayers fills in.
var layerUnits = map[string]string{
	"partition.s": "s", "partition.cut_edges": "count",
	"dsys.distribute_s": "s", "dsys.interface_rows": "count", "dsys.max_neighbors": "count",
	"precond.setup_s": "s", "precond.setup_max_rank_s": "s", "precond.factor_nnz": "count",
	"ilu.factor_s": "s", "ilu.trisolve_s": "s", "sparse.spmv_s": "s",
}

// kernelKeys are computed, not measured: the flops and bytes one call of
// a kernel moves if every array is streamed once from memory (CSR with
// 8-byte values and 8-byte indices). Cache hits are ignored, so the
// derived flops per byte is a property of the data structure.
var kernelKeys = []string{
	"matrix_bytes", // global A in CSR
	"spmv_flops_per_call", "spmv_bytes_per_call",
	"factor_bytes", // Σ ranks' ILUT factors in CSR
	"trisolve_flops_per_call", "trisolve_bytes_per_call",
}

// csrBytes is the memory of a CSR matrix: values, column indices and
// row pointers.
func csrBytes(a *sparse.CSR) float64 {
	return float64(16*a.NNZ() + 8*(a.Rows+1))
}

// kernelReps is how many calls each kernel timing takes its median over.
const kernelReps = 15

// measureLayers times partition, distribute, preconditioner setup, the
// ILUT factorization and triangular solve, and the SpMV on prob's
// subdomains. Every rank's kernels are timed one rank at a time, so the
// per-call times add up to what one core spends on them.
func measureLayers(tr *tracer, prob *core.Problem, cfg core.Config) (layerStats, error) {
	root := tr.begin("layers "+prob.Name+"/"+string(cfg.Precond), -1, -1)
	defer tr.end(root)
	ls := layerStats{"matrix_bytes": csrBytes(prob.A)}
	var part []int
	var times []float64
	for i := 0; i < 3; i++ {
		var err error
		times = append(times, tr.timed("core.Partition", root, -1, func() { part, err = core.Partition(prob, cfg) }))
		if err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
	}
	ls["partition.s"] = median(times)
	ptr, adj := prob.Mesh.NodeGraph()
	ls["partition.cut_edges"] = float64(partition.EdgeCut(&partition.Graph{Ptr: ptr, Adj: adj}, part))

	var systems []*dsys.System
	times = times[:0]
	for i := 0; i < 3; i++ {
		times = append(times, tr.timed("dsys.Distribute", root, -1, func() {
			systems = dsys.Distribute(prob.A, prob.B, part, cfg.P)
		}))
	}
	ls["dsys.distribute_s"] = median(times)
	for _, s := range systems {
		ls["dsys.interface_rows"] += float64(s.NIface())
		ls["dsys.max_neighbors"] = max(ls["dsys.max_neighbors"], float64(len(s.Neigh)))
	}

	for _, s := range systems {
		var pc precond.Preconditioner
		var err error
		d := tr.timed("precond.New "+string(cfg.Precond), root, -1, func() { pc, err = newPrecond(s, cfg) })
		if err != nil {
			return nil, err
		}
		ls["precond.setup_s"] += d
		ls["precond.setup_max_rank_s"] = max(ls["precond.setup_max_rank_s"], d)
		if f, ok := pc.(interface{ FactorNNZ() int }); ok {
			ls["precond.factor_nnz"] += float64(f.FactorNNZ())
		}
	}

	for _, s := range systems {
		blk := s.OwnedBlock()
		var f *ilu.LU
		var err error
		ls["ilu.factor_s"] += tr.timed("ilu.ILUT", root, -1, func() { f, err = ilu.ILUT(blk, cfg.ILUT) })
		if err != nil {
			return nil, fmt.Errorf("ilu: rank %d: %w", s.Rank, err)
		}
		n := float64(f.N())
		ls["factor_bytes"] += csrBytes(f.M) + 8*n
		// Exact kernel count: a multiply-subtract per off-diagonal entry
		// and a divide per row. Bytes: the factor and its diagonal index,
		// b read, x written and read back by the backward sweep.
		ls["trisolve_flops_per_call"] += 2*float64(f.NNZ()) - n
		ls["trisolve_bytes_per_call"] += csrBytes(f.M) + 8*n + 3*8*n
		x, b := make([]float64, f.N()), ones(f.N())
		ls["ilu.trisolve_s"] += medianCall(tr, root, "ilu.LU.Solve", func() { f.Solve(x, b) })

		y, v := make([]float64, blk.Rows), ones(blk.Cols)
		ls["spmv_flops_per_call"] += 2 * float64(blk.NNZ())
		ls["spmv_bytes_per_call"] += csrBytes(blk) + 8*float64(blk.Cols+blk.Rows)
		ls["sparse.spmv_s"] += medianCall(tr, root, "sparse.CSR.MulVecTo", func() { blk.MulVecTo(y, v) })
	}
	return ls, nil
}

// medianCall returns the median wall seconds of kernelReps calls of fn,
// after one untimed call that fills any lazily built caches.
func medianCall(tr *tracer, parent int, name string, fn func()) float64 {
	fn()
	times := make([]float64, kernelReps)
	for i := range times {
		times[i] = tr.timed(name, parent, -1, fn)
	}
	return median(times)
}

// newPrecond builds the configured preconditioner for one subdomain
// through the precond constructors (the kinds the workloads use).
func newPrecond(s *dsys.System, cfg core.Config) (precond.Preconditioner, error) {
	switch cfg.Precond {
	case precond.KindBlock2:
		return precond.NewBlock2(s, cfg.ILUT)
	case precond.KindSchur1:
		return precond.NewSchur1(s, cfg.Schur1)
	case precond.KindSchur2:
		return precond.NewSchur2(s, cfg.Schur2)
	}
	return nil, fmt.Errorf("no layer measurement for preconditioner %q", cfg.Precond)
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// addLayerMetrics reports the mean of the per-problem layer numbers (the
// gateway mix has one problem per spec; the solve workloads have one).
func addLayerMetrics(r *report, all []layerStats) {
	m := layerStats{}
	for _, ls := range all {
		for k, v := range ls {
			m[k] += v / float64(len(all))
		}
	}
	for name, unit := range layerUnits {
		r.layer[name] = metric{m[name], unit}
	}
	r.layer["ilu.trisolve_flops_per_byte"] = metric{m["trisolve_flops_per_call"] / m["trisolve_bytes_per_call"], "flop/B"}
	r.layer["sparse.spmv_flops_per_byte"] = metric{m["spmv_flops_per_call"] / m["spmv_bytes_per_call"], "flop/B"}
	r.layer["sparse.spmv_gbps_computed"] = metric{m["spmv_bytes_per_call"] / m["sparse.spmv_s"] / 1e9, "GB/s"}
	kernels := map[string]float64{}
	for _, k := range kernelKeys {
		kernels[k] = m[k]
	}
	r.header["kernels_computed"] = kernels
}
