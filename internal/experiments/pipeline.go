package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/rt/remote"
	"fuseme/internal/workloads"
)

// PipelineRun is one GNMF run's overlap accounting: measured wall time
// against the cost model's ideal stage time max(net, comp)/lanes. Net time
// is the full wire wait (visible fetch stalls plus wire time hidden behind
// kernels by prefetch); comp time is task wall minus visible stalls.
type PipelineRun struct {
	WallSeconds      float64 `json:"wall_seconds"`
	NetSeconds       float64 `json:"net_seconds"`
	CompSeconds      float64 `json:"comp_seconds"`
	PredictedSeconds float64 `json:"predicted_seconds"`
	DistanceSeconds  float64 `json:"distance_seconds"`
	OverlapRatio     float64 `json:"overlap_ratio"`
	PrefetchBlocks   int64   `json:"prefetch_blocks"`
	PrefetchBytes    int64   `json:"prefetch_bytes"`
	StealTasks       int64   `json:"steal_tasks"`
	Tasks            int64   `json:"tasks"`
}

// PipelineReport is the JSON document `fuseme-bench -exp pipeline -out`
// writes: the same GNMF run in barrier mode and pipelined mode on two real
// TCP workers. The pipelined wall must land strictly closer to the predicted
// max(net, comp) stage time than the barrier wall, which pays net + comp.
type PipelineReport struct {
	Workload         string      `json:"workload"`
	Workers          int         `json:"workers"`
	Lanes            int         `json:"lanes"`
	Iterations       int         `json:"iterations"`
	BlockSize        int         `json:"block_size"`
	KernelPadSeconds float64     `json:"kernel_pad_seconds"`
	Barrier          PipelineRun `json:"barrier"`
	Pipelined        PipelineRun `json:"pipelined"`
	SpeedupPercent   float64     `json:"speedup_percent"`
}

// runPipelineGNMF executes GNMF over cfg.Nodes in-process TCP workers with
// pipelining on or off and folds the run into a PipelineRun. pad inflates
// every task by a fixed kernel-side sleep so compute is material next to
// loopback wire time — the controlled knob that makes overlap measurable on
// one machine, where real kernels at bench scale finish faster than the
// wire.
func runPipelineGNMF(cfg cluster.Config, pad time.Duration, pipelined bool, x, u, v *block.Matrix, iters int) (PipelineRun, error) {
	cfg.DisablePipelining = !pipelined
	lc, err := remote.StartLocal(cfg, remote.Config{})
	if err != nil {
		return PipelineRun{}, err
	}
	defer lc.Close()
	for _, w := range lc.Workers {
		w.SetTaskDelay(pad)
	}
	res, err := workloads.RunGNMF(core.FuseME{}, lc.Coordinator, x, u, v, iters)
	if err != nil {
		return PipelineRun{}, err
	}

	s := res.Total
	lanes := cfg.Nodes * cfg.TasksPerNode
	run := PipelineRun{
		WallSeconds:    s.WallSeconds,
		NetSeconds:     s.FetchSeconds + s.PrefetchSeconds,
		CompSeconds:    s.TaskSeconds - s.FetchSeconds,
		OverlapRatio:   s.OverlapRatio(),
		PrefetchBlocks: s.PrefetchBlocks,
		PrefetchBytes:  s.PrefetchBytes,
		StealTasks:     s.StealTasks,
		Tasks:          int64(s.Tasks),
	}
	run.PredictedSeconds = math.Max(run.NetSeconds, run.CompSeconds) / float64(lanes)
	run.DistanceSeconds = math.Abs(run.WallSeconds - run.PredictedSeconds)
	return run, nil
}

// PipelineBench measures how close each execution mode gets to the cost
// model's overlap assumption: a stage ideally costs max(net, comp), not
// net + comp. Barrier mode fetches, then computes — its wall time carries
// the sum. Pipelined mode prefetches the next task's inputs behind the
// current kernel, so its wall time approaches the max. Both runs use the
// same inputs, the same kernel pad, and two real TCP workers.
func PipelineBench(opts Options) (*PipelineReport, []*Table, error) {
	const iters = 6
	var (
		users = opts.dim(512)
		items = opts.dim(384)
		k     = opts.dim(32)
		bs    = 64
		pad   = 8 * time.Millisecond
	)
	workers := 2
	if opts.Nodes > 0 {
		workers = opts.Nodes
	}
	// Over-decomposition is what makes overlap possible: with one wave per
	// stage (the default) every task starts at once and there is no "next
	// task" to pull ahead for. Six waves over one lane per worker give each
	// worker a queue of sequential tasks, so iterations 2+ hide each
	// successor's wire time behind the running kernel.
	cfg := cluster.Config{
		Nodes: workers, TasksPerNode: 1, Oversubscribe: 6,
		TaskMemBytes: 4 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: bs,
	}

	mk := func() (x, u, v *block.Matrix) {
		x = block.RandomDense(users, items, bs, 0.5, 1.5, 41)
		u = block.RandomDense(k, items, bs, 0.2, 0.8, 42)
		v = block.RandomDense(users, k, bs, 0.2, 0.8, 43)
		return
	}

	x, u, v := mk()
	barrier, err := runPipelineGNMF(cfg, pad, false, x, u, v, iters)
	if err != nil {
		return nil, nil, fmt.Errorf("barrier GNMF: %w", err)
	}
	x, u, v = mk()
	pipelined, err := runPipelineGNMF(cfg, pad, true, x, u, v, iters)
	if err != nil {
		return nil, nil, fmt.Errorf("pipelined GNMF: %w", err)
	}

	rep := &PipelineReport{
		Workload: fmt.Sprintf("GNMF %dx%d k=%d", users, items, k),
		Workers:  workers, Lanes: workers * cfg.TasksPerNode,
		Iterations: iters, BlockSize: bs,
		KernelPadSeconds: pad.Seconds(),
		Barrier:          barrier, Pipelined: pipelined,
	}
	if barrier.WallSeconds > 0 {
		rep.SpeedupPercent = 100 * (barrier.WallSeconds - pipelined.WallSeconds) / barrier.WallSeconds
	}

	tab := &Table{ID: "pipeline",
		Title: fmt.Sprintf("Pipelined stage execution: GNMF %dx%d k=%d over %d TCP workers (real execution)",
			users, items, k, workers),
		Columns: []string{"mode", "wall (s)", "net (s)", "comp (s)", "predicted max (s)", "distance (s)", "overlap"},
	}
	for _, row := range []struct {
		mode string
		run  PipelineRun
	}{{"barrier", barrier}, {"pipelined", pipelined}} {
		tab.AddRow(row.mode, formatF(row.run.WallSeconds), formatF(row.run.NetSeconds),
			formatF(row.run.CompSeconds), formatF(row.run.PredictedSeconds),
			formatF(row.run.DistanceSeconds), formatF(row.run.OverlapRatio))
	}
	tab.Notes = append(tab.Notes,
		"predicted = max(net, comp) / lanes: the cost model's overlap assumption for one stage wave",
		"every task is padded by a fixed kernel sleep so compute is material next to loopback wire time",
		"the first iteration seeds the prefetch history; iterations 2+ prefetch against it")
	return rep, []*Table{tab}, nil
}

// Pipeline is the registered runner for PipelineBench; when Options.ReportOut
// is set, it also writes the JSON report there (fuseme-bench -out).
func Pipeline(opts Options) ([]*Table, error) {
	rep, tables, err := PipelineBench(opts)
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
