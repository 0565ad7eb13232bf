package experiments

import (
	"encoding/json"
	"fmt"
	"os"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/rt/remote"
	"fuseme/internal/workloads"
)

// CacheIter is one GNMF iteration's wire traffic with the cache off and on.
type CacheIter struct {
	Iteration         int   `json:"iteration"`
	UncachedWireBytes int64 `json:"uncached_wire_bytes"`
	CachedWireBytes   int64 `json:"cached_wire_bytes"`
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	CacheSavedBytes   int64 `json:"cache_saved_bytes"`
}

// CacheReport is the JSON document `fuseme-bench -exp cache -out` writes.
type CacheReport struct {
	Workload   string      `json:"workload"`
	Workers    int         `json:"workers"`
	Iterations int         `json:"iterations"`
	BlockSize  int         `json:"block_size"`
	CacheBytes int64       `json:"cache_bytes"`
	PerIter    []CacheIter `json:"per_iter"`
}

// runGNMFOverTCP executes GNMF against cfg.Nodes in-process TCP workers
// (budget 0 disables the block cache) and returns the per-iteration stats
// deltas.
func runGNMFOverTCP(cfg cluster.Config, budget int64, x, u, v *block.Matrix, iters int) ([]cluster.Stats, error) {
	cfg.CacheBytes = budget
	lc, err := remote.StartLocal(cfg, remote.Config{})
	if err != nil {
		return nil, err
	}
	defer lc.Close()
	res, err := workloads.RunGNMF(core.FuseME{}, lc.Coordinator, x, u, v, iters)
	if err != nil {
		return nil, err
	}
	return res.PerIter, nil
}

// CacheBench runs the loop-invariant block-cache experiment: GNMF over the
// real TCP runtime (in-process workers), once with the cache off and once
// with it on, recording per-iteration wire bytes. X is loop-invariant, so
// from the second iteration on the cached run stops shipping it and wire
// traffic drops sharply; the uncached run re-ships it every iteration.
func CacheBench(opts Options) (*CacheReport, []*Table, error) {
	const iters = 4
	var (
		users = opts.dim(960)
		items = opts.dim(640)
		k     = opts.dim(24)
		bs    = 32
	)
	workers := 2
	if opts.Nodes > 0 {
		workers = opts.Nodes
	}
	cfg := cluster.Config{
		Nodes: workers, TasksPerNode: 4, TaskMemBytes: 4 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: bs,
	}
	const budget = 256 << 20

	mk := func() (x, u, v *block.Matrix) {
		x = block.RandomDense(users, items, bs, 0.5, 1.5, 11)
		u = block.RandomDense(k, items, bs, 0.2, 0.8, 12)
		v = block.RandomDense(users, k, bs, 0.2, 0.8, 13)
		return
	}

	x, u, v := mk()
	cold, err := runGNMFOverTCP(cfg, 0, x, u, v, iters)
	if err != nil {
		return nil, nil, fmt.Errorf("uncached GNMF: %w", err)
	}
	x, u, v = mk()
	warm, err := runGNMFOverTCP(cfg, budget, x, u, v, iters)
	if err != nil {
		return nil, nil, fmt.Errorf("cached GNMF: %w", err)
	}

	wire := func(s cluster.Stats) int64 { return s.TotalCommBytes() + s.ExtraWireBytes }
	rep := &CacheReport{
		Workload: fmt.Sprintf("GNMF %dx%d k=%d", users, items, k),
		Workers:  workers, Iterations: iters, BlockSize: bs, CacheBytes: budget,
	}
	tab := &Table{ID: "cache",
		Title: fmt.Sprintf("Loop-invariant block cache: GNMF %dx%d k=%d over %d TCP workers (real execution)",
			users, items, k, workers),
		Columns: []string{"iteration", "uncached wire (MB)", "cached wire (MB)", "hits", "saved (MB)"},
	}
	for i := 0; i < iters; i++ {
		it := CacheIter{
			Iteration:         i,
			UncachedWireBytes: wire(cold[i]),
			CachedWireBytes:   wire(warm[i]),
			CacheHits:         warm[i].CacheHits,
			CacheMisses:       warm[i].CacheMisses,
			CacheSavedBytes:   warm[i].CacheSavedBytes,
		}
		rep.PerIter = append(rep.PerIter, it)
		tab.AddRow(i, float64(it.UncachedWireBytes)/1e6, float64(it.CachedWireBytes)/1e6,
			it.CacheHits, float64(it.CacheSavedBytes)/1e6)
	}
	tab.Notes = append(tab.Notes,
		"X is loop-invariant: from iteration 2 the cached run serves it from worker-resident caches instead of re-shipping it")
	return rep, []*Table{tab}, nil
}

// Cache is the registered runner for CacheBench; when Options.ReportOut is
// set, it also writes the JSON report there (fuseme-bench -out).
func Cache(opts Options) ([]*Table, error) {
	rep, tables, err := CacheBench(opts)
	if err != nil {
		return nil, err
	}
	if opts.ReportOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(opts.ReportOut, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return tables, nil
}
