package main

import (
	"fmt"
	"math"
	"time"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/lang"
	"fuseme/internal/matrix"
	"fuseme/internal/rt"
	"fuseme/internal/rt/remote"
	"fuseme/internal/workloads"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median. Only the last set-up is kept for the timed section.
const setupReps = 5

// warmOps is how many ops each set-up runs to fill the caches before the
// timed section.
const warmOps = 2

// setUp builds the workload setupReps times, timing each build, and keeps
// the last; release frees each discarded build before the next one starts.
func setUp[T any](out *outcome, build func() (T, error), release func(T)) (T, error) {
	var last T
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			release(last)
		}
		t0 := time.Now()
		st, err := build()
		if err != nil {
			var zero T
			return zero, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		last = st
	}
	return last, nil
}

// tcpConfig is the cluster of both TCP workloads: two workers with one task
// slot each, four waves of tasks per stage so workers have queued tasks to
// prefetch for and steal, and the worker block cache on.
func tcpConfig(blockSize int) cluster.Config {
	return cluster.Config{
		Nodes: 2, TasksPerNode: 1, Oversubscribe: 4,
		TaskMemBytes: 4 << 30, NetBandwidth: 1e9, CompBandwidth: 50e9,
		BlockSize: blockSize, CacheBytes: 256 << 20,
	}
}

// tcpCluster is a coordinator over in-process workers.
type tcpCluster struct {
	co      *remote.Coordinator
	workers []*remote.Worker
}

func startTCP(cfg cluster.Config) (*tcpCluster, error) {
	c := &tcpCluster{}
	addrs := make([]string, cfg.Nodes)
	for i := range addrs {
		w, err := remote.NewWorker("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start worker: %w", err)
		}
		w.SetCacheBytes(cfg.CacheBytes)
		c.workers = append(c.workers, w)
		addrs[i] = w.Addr()
	}
	co, err := remote.NewCoordinatorConfig(cfg, addrs, remote.Config{})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("start coordinator: %w", err)
	}
	c.co = co
	return c, nil
}

// close stops the coordinator and the workers and waits for the workers'
// goroutines to end.
func (c *tcpCluster) close() {
	if c.co != nil {
		c.co.Close()
	}
	for _, w := range c.workers {
		w.Close()
		w.Wait()
	}
}

// predSeconds is the plan's Eq. 2 prediction at the configured bandwidths:
// max(net, comp) of each fused operator, summed over the plan.
func predSeconds(pp *core.PhysPlan, cfg cluster.Config) float64 {
	n := float64(cfg.Nodes)
	var total float64
	for _, op := range pp.Ops {
		net := float64(op.EstNetBytes) / (n * cfg.NetBandwidth)
		comp := float64(op.EstComFlops) / (n * cfg.EffectiveCompBandwidth())
		total += math.Max(net, comp)
	}
	return total
}

// parseCompile parses script against decls and compiles it for cfg, timing
// both calls.
func parseCompile(script string, decls map[string]lang.InputDecl, cfg cluster.Config, tr *tracer, parent *active, op int) (*core.PhysPlan, map[string]float64, error) {
	layer := map[string]float64{}
	sp := tr.start("lang.parse", parent, op)
	t0 := time.Now()
	g, err := lang.Parse(script, decls)
	layer["lang.parse_s"] = time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	sp = tr.start("core.compile", parent, op)
	t0 = time.Now()
	pp, err := core.FuseME{}.Compile(g, cfg)
	layer["core.compile_s"] = time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return nil, nil, fmt.Errorf("compile: %w", err)
	}
	return pp, layer, nil
}

// execLayers runs one compiled plan on rtm inside a core.execute span and
// returns the runtime's counter differences as per-layer values.
func execLayers(pp *core.PhysPlan, rtm rt.Runtime, inputs map[string]*block.Matrix, pred float64, tr *tracer, root *active, op int) (map[string]*block.Matrix, map[string]float64, error) {
	var before cluster.Stats
	if tr != nil {
		before = rtm.Stats()
	}
	sp := tr.start("core.execute", root, op)
	t0 := time.Now()
	out, err := core.ExecuteObs(pp, rtm, inputs, nil)
	execS := time.Since(t0).Seconds()
	sp.end()
	if err != nil || tr == nil {
		return out, nil, err
	}
	d := statsDiff(rtm.Stats(), before)
	slots := float64(rtm.Config().TotalSlots())
	wireBytes := float64(d.TotalCommBytes())
	wireSecs := d.FetchSeconds + d.PrefetchSeconds
	layer := map[string]float64{
		"core.execute_s":         execS,
		"cost.pred_s":            pred,
		"rt.stages":              float64(d.Stages),
		"rt.tasks":               float64(d.Tasks),
		"rt.wire_bytes":          wireBytes,
		"rt.extra_wire_bytes":    float64(d.ExtraWireBytes),
		"rt.fetch_wait_s":        d.FetchSeconds,
		"rt.lane_idle_s":         execS - d.TaskSeconds/slots,
		"rt.steal_tasks":         float64(d.StealTasks),
		"rt.peak_task_mem_bytes": float64(d.PeakTaskMemBytes),
		"exec.compute_s":         d.TaskSeconds - d.FetchSeconds,
		"exec.flops":             float64(d.Flops),
		"blockcache.saved_bytes": float64(d.CacheSavedBytes),
		"prefetch.blocks":        float64(d.PrefetchBlocks),
		// helper sums for the run-level ratios
		"wire_total_bytes": wireBytes + float64(d.ExtraWireBytes),
		"wire_seconds":     wireSecs,
		"prefetch_seconds": d.PrefetchSeconds,
		"compute_sum_s":    d.TaskSeconds - d.FetchSeconds,
		"cache_hits":       float64(d.CacheHits),
		"cache_lookups":    float64(d.CacheHits + d.CacheMisses),
	}
	return out, layer, nil
}

// statsDiff is cur - prev for the cumulative counters; the peak task memory
// is a high-water mark and is taken from cur.
func statsDiff(cur, prev cluster.Stats) cluster.Stats {
	return cluster.Stats{
		ConsolidationBytes: cur.ConsolidationBytes - prev.ConsolidationBytes,
		AggregationBytes:   cur.AggregationBytes - prev.AggregationBytes,
		ExtraWireBytes:     cur.ExtraWireBytes - prev.ExtraWireBytes,
		Flops:              cur.Flops - prev.Flops,
		Stages:             cur.Stages - prev.Stages,
		Tasks:              cur.Tasks - prev.Tasks,
		PeakTaskMemBytes:   cur.PeakTaskMemBytes,
		CacheHits:          cur.CacheHits - prev.CacheHits,
		CacheMisses:        cur.CacheMisses - prev.CacheMisses,
		CacheSavedBytes:    cur.CacheSavedBytes - prev.CacheSavedBytes,
		PrefetchBlocks:     cur.PrefetchBlocks - prev.PrefetchBlocks,
		StealTasks:         cur.StealTasks - prev.StealTasks,
		FetchSeconds:       cur.FetchSeconds - prev.FetchSeconds,
		PrefetchSeconds:    cur.PrefetchSeconds - prev.PrefetchSeconds,
		TaskSeconds:        cur.TaskSeconds - prev.TaskSeconds,
	}
}

// bitIdentical reports whether a and b have the same shape and the same
// float64 bit pattern everywhere, and where they first differ.
func bitIdentical(a, b *block.Matrix) (bool, string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false, fmt.Sprintf("shape %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false, fmt.Sprintf("differs at (%d,%d): %v vs %v", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
	return true, fmt.Sprintf("%dx%d bit-identical", a.Rows, a.Cols)
}

// seedOf derives the generator seed of one input from the run's seed.
func seedOf(seed int64, input int64) int64 { return seed*1_000_003 + input }

// gnmfScript is Eq. 6, the two multiplicative updates of Gaussian NMF.
const gnmfScript = `
U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)
V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))
`

// gnmfSize is the GNMF shape: dense X users x items, factors of rank k.
type gnmfSize struct{ users, items, k, bs int }

// gnmfState is one GNMF set-up: the cluster, the plan and the factors.
type gnmfState struct {
	cl       *tcpCluster
	pp       *core.PhysPlan
	x, u, v  *block.Matrix
	u0, v0   *block.Matrix // factors before the first iteration
	iters    int           // successful iterations so far
	compileS float64
	pred     float64
}

func gnmfSetup(e *env, sz gnmfSize, cfg cluster.Config) (*gnmfState, error) {
	cl, err := startTCP(cfg)
	if err != nil {
		return nil, err
	}
	s := &gnmfState{cl: cl}
	s.x = block.RandomDense(sz.users, sz.items, sz.bs, 0.5, 1.5, seedOf(e.seed, 1))
	// Factors start at the scale that makes V U match X's mean of 1,
	// sqrt(1/k) per entry, as NMF initialisations usually do.
	f := math.Sqrt(1 / float64(sz.k))
	s.u = block.RandomDense(sz.k, sz.items, sz.bs, 0.5*f, 1.5*f, seedOf(e.seed, 2))
	s.v = block.RandomDense(sz.users, sz.k, sz.bs, 0.5*f, 1.5*f, seedOf(e.seed, 3))
	s.u0, s.v0 = s.u, s.v
	decls := map[string]lang.InputDecl{
		"X": {Rows: sz.users, Cols: sz.items, Sparsity: 1},
		"U": {Rows: sz.k, Cols: sz.items, Sparsity: 1},
		"V": {Rows: sz.users, Cols: sz.k, Sparsity: 1},
	}
	pp, layer, err := parseCompile(gnmfScript, decls, cl.co.Config(), nil, nil, 0)
	if err != nil {
		cl.close()
		return nil, err
	}
	s.pp, s.compileS = pp, layer["core.compile_s"]
	s.pred = predSeconds(pp, cfg)
	for i := 0; i < warmOps; i++ {
		if _, err := s.step(nil, nil, -1); err != nil {
			cl.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// step runs one GNMF iteration and feeds its factors into the next.
func (s *gnmfState) step(tr *tracer, root *active, op int) (map[string]float64, error) {
	out, layer, err := execLayers(s.pp, s.cl.co,
		map[string]*block.Matrix{"X": s.x, "U": s.u, "V": s.v}, s.pred, tr, root, op)
	if err != nil {
		return nil, err
	}
	s.u, s.v = out["U2"], out["V2"]
	s.iters++
	return layer, nil
}

// gnmfLoss is ||X - V U||^2.
func gnmfLoss(x, u, v *block.Matrix) float64 {
	p := matrix.ToDense(matrix.MatMul(v.ToMat(), u.ToMat()))
	xd := matrix.ToDense(x.ToMat())
	var s float64
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			d := xd.At(i, j) - p.At(i, j)
			s += d * d
		}
	}
	return s
}

func runGNMF(e *env) (*outcome, error) {
	sz := gnmfSize{users: 1024, items: 768, k: 64, bs: 128}
	if e.tiny {
		sz = gnmfSize{users: 48, items: 32, k: 8, bs: 16}
	}
	cfg := tcpConfig(sz.bs)
	out := &outcome{layer: map[string]float64{}}
	var setupCompile []float64
	s, err := setUp(out, func() (*gnmfState, error) {
		st, err := gnmfSetup(e, sz, cfg)
		if err == nil {
			setupCompile = append(setupCompile, st.compileS)
		}
		return st, err
	}, func(st *gnmfState) { st.cl.close() })
	if err != nil {
		return nil, err
	}
	defer s.cl.close()
	out.layer["setup.compile_s"] = median(setupCompile)

	out.ops, out.wall = e.timedLoop(1, func(i int, tr *tracer, root *active) (map[string]float64, error) {
		return s.step(tr, root, i)
	})

	// Correctness: the same iterations on the sim backend give bit-identical
	// factors, and the loss fell.
	sim, err := workloads.RunGNMF(core.FuseME{}, cluster.MustNew(cfg), s.x, s.u0, s.v0, s.iters)
	if err != nil {
		return nil, fmt.Errorf("sim reference: %w", err)
	}
	ok, detail := bitIdentical(s.u, sim.U)
	out.check("gnmf.U_matches_sim", ok, "%d iterations: %s", s.iters, detail)
	ok, detail = bitIdentical(s.v, sim.V)
	out.check("gnmf.V_matches_sim", ok, "%d iterations: %s", s.iters, detail)
	l0, l1 := gnmfLoss(s.x, s.u0, s.v0), gnmfLoss(s.x, s.u, s.v)
	out.check("gnmf.loss_falls", l1 < l0, "%.6g -> %.6g", l0, l1)

	out.record = map[string]any{
		"shape":                 fmt.Sprintf("X %dx%d dense, k=%d, block %d", sz.users, sz.items, sz.k, sz.bs),
		"cluster":               "2 TCP workers x 1 slot, oversubscribe 4, block cache 256 MiB",
		"net_bandwidth_mb_s":    cfg.NetBandwidth / 1e6,
		"comp_bandwidth_gflops": cfg.CompBandwidth / 1e9,
		"plan":                  s.pp.Describe(),
		"iterations":            s.iters,
	}
	return out, nil
}

// aeDecls declares the AutoEncoder step's inputs.
func aeDecls(c workloads.AutoEncoderConfig) map[string]lang.InputDecl {
	return map[string]lang.InputDecl{
		"XT": {Rows: c.Features, Cols: c.Batch, Sparsity: 1},
		"W1": {Rows: c.H1, Cols: c.Features, Sparsity: 1},
		"b1": {Rows: c.H1, Cols: 1, Sparsity: 1},
		"W2": {Rows: c.H2, Cols: c.H1, Sparsity: 1},
		"b2": {Rows: c.H2, Cols: 1, Sparsity: 1},
		"W3": {Rows: c.H1, Cols: c.H2, Sparsity: 1},
		"b3": {Rows: c.H1, Cols: 1, Sparsity: 1},
		"W4": {Rows: c.Features, Cols: c.H1, Sparsity: 1},
		"b4": {Rows: c.Features, Cols: 1, Sparsity: 1},
	}
}

// aeScript is the forward and backward pass of one AutoEncoder mini-batch,
// the query workloads.AutoEncoderStep builds.
const aeScript = `
H1 = sigmoid(W1 %*% XT + b1)
H2 = sigmoid(W2 %*% H1 + b2)
H3 = sigmoid(W3 %*% H2 + b3)
Y = sigmoid(W4 %*% H3 + b4)
E = Y - XT
loss = sum(E ^ 2)
D4 = E * sigmoidGrad(Y)
gW4 = D4 %*% t(H3)
gb4 = rowSums(D4)
D3 = (t(W4) %*% D4) * sigmoidGrad(H3)
gW3 = D3 %*% t(H2)
gb3 = rowSums(D3)
D2 = (t(W3) %*% D3) * sigmoidGrad(H2)
gW2 = D2 %*% t(H1)
gb2 = rowSums(D2)
D1 = (t(W2) %*% D2) * sigmoidGrad(H1)
gW1 = D1 %*% t(XT)
gb1 = rowSums(D1)
`

// aeSize is the AutoEncoder shape and its training data size.
type aeSize struct {
	c        workloads.AutoEncoderConfig
	examples int
	bs       int
	lr       float64
}

// aeState is one AutoEncoder set-up.
type aeState struct {
	cl       *tcpCluster
	pp       *core.PhysPlan
	x        *block.Matrix   // examples x features
	batches  []*block.Matrix // transposed batches, features x batch
	w, w0    *workloads.AEState
	steps    int
	losses   []float64
	lr       float64
	pred     float64
	compileS float64
}

// aeData is low-rank data squashed into (0, 1), so the AutoEncoder has
// structure to learn and its loss keeps falling.
func aeData(examples, features, bs int, seed int64) *block.Matrix {
	const rank = 4
	a := block.RandomDense(examples, rank, bs, -2, 2, seedOf(seed, 11)).ToMat()
	b := block.RandomDense(rank, features, bs, -2, 2, seedOf(seed, 12)).ToMat()
	z := matrix.MatMul(a, b)
	return block.FromMat(matrix.Apply(func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }, z), bs)
}

// transposedBatches cuts x into the transposed mini-batches, exactly as
// workloads.RunAutoEncoderEpoch does.
func transposedBatches(x *block.Matrix, c workloads.AutoEncoderConfig, bs int) []*block.Matrix {
	flat := x.ToMat()
	var out []*block.Matrix
	for start := 0; start+c.Batch <= x.Rows; start += c.Batch {
		xt := matrix.NewDense(c.Features, c.Batch)
		for i := 0; i < c.Batch; i++ {
			for j := 0; j < c.Features; j++ {
				xt.Set(j, i, flat.At(start+i, j))
			}
		}
		out = append(out, block.FromMat(xt, bs))
	}
	return out
}

func cloneAE(s *workloads.AEState) *workloads.AEState {
	return &workloads.AEState{
		W1: s.W1.Clone(), B1: s.B1.Clone(), W2: s.W2.Clone(), B2: s.B2.Clone(),
		W3: s.W3.Clone(), B3: s.B3.Clone(), W4: s.W4.Clone(), B4: s.B4.Clone(),
	}
}

func aeSetup(e *env, sz aeSize, cfg cluster.Config) (*aeState, error) {
	cl, err := startTCP(cfg)
	if err != nil {
		return nil, err
	}
	s := &aeState{cl: cl, lr: sz.lr}
	s.x = aeData(sz.examples, sz.c.Features, sz.bs, e.seed)
	s.batches = transposedBatches(s.x, sz.c, sz.bs)
	s.w = workloads.InitAutoEncoder(sz.c, sz.bs, seedOf(e.seed, 13))
	s.w0 = cloneAE(s.w)
	pp, layer, err := parseCompile(aeScript, aeDecls(sz.c), cl.co.Config(), nil, nil, 0)
	if err != nil {
		cl.close()
		return nil, err
	}
	s.pp, s.compileS = pp, layer["core.compile_s"]
	s.pred = predSeconds(pp, cfg)
	for i := 0; i < warmOps; i++ {
		if _, err := s.step(nil, nil, -1); err != nil {
			cl.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// step executes the compiled step on the next batch and applies the SGD
// update on the driver, as workloads.RunAutoEncoderEpoch does.
func (s *aeState) step(tr *tracer, root *active, op int) (map[string]float64, error) {
	w := s.w
	out, layer, err := execLayers(s.pp, s.cl.co, map[string]*block.Matrix{
		"XT": s.batches[s.steps%len(s.batches)],
		"W1": w.W1, "b1": w.B1, "W2": w.W2, "b2": w.B2,
		"W3": w.W3, "b3": w.B3, "W4": w.W4, "b4": w.B4,
	}, s.pred, tr, root, op)
	if err != nil {
		return nil, err
	}
	sp := tr.start("block.update", root, op)
	t0 := time.Now()
	for _, u := range []struct {
		w *block.Matrix
		g string
	}{{w.W1, "gW1"}, {w.B1, "gb1"}, {w.W2, "gW2"}, {w.B2, "gb2"},
		{w.W3, "gW3"}, {w.B3, "gb3"}, {w.W4, "gW4"}, {w.B4, "gb4"}} {
		applySGD(u.w, out[u.g], s.lr)
	}
	upd := time.Since(t0).Seconds()
	sp.end()
	if layer != nil {
		layer["block.update_s"] = upd
	}
	s.losses = append(s.losses, out["loss"].At(0, 0))
	s.steps++
	return layer, nil
}

// applySGD performs w -= lr * g block-wise on the driver.
func applySGD(w, g *block.Matrix, lr float64) {
	scaled := block.New(g.Rows, g.Cols, g.BlockSize)
	g.ForEach(func(k block.Key, blk matrix.Mat) {
		scaled.SetBlock(k.Row, k.Col, matrix.Scale(blk, -lr))
	})
	block.AddInto(w, scaled)
}

func runAE(e *env) (*outcome, error) {
	sz := aeSize{c: workloads.AutoEncoderConfig{Features: 256, Batch: 128, H1: 64, H2: 16},
		examples: 2048, bs: 128, lr: 0.01}
	if e.tiny {
		sz = aeSize{c: workloads.AutoEncoderConfig{Features: 24, Batch: 16, H1: 8, H2: 4},
			examples: 64, bs: 16, lr: 0.02}
	}
	cfg := tcpConfig(sz.bs)
	out := &outcome{layer: map[string]float64{}}
	var setupCompile []float64
	s, err := setUp(out, func() (*aeState, error) {
		st, err := aeSetup(e, sz, cfg)
		if err == nil {
			setupCompile = append(setupCompile, st.compileS)
		}
		return st, err
	}, func(st *aeState) { st.cl.close() })
	if err != nil {
		return nil, err
	}
	defer s.cl.close()
	out.layer["setup.compile_s"] = median(setupCompile)

	out.ops, out.wall = e.timedLoop(1, func(i int, tr *tracer, root *active) (map[string]float64, error) {
		return s.step(tr, root, i)
	})

	// Correctness: the library's epoch runner on the sim backend, fed the
	// same batches for the same number of steps, ends at bit-identical
	// weights; and the loss fell from the first epoch to the last.
	ref := cloneAE(s.w0)
	sim := cluster.MustNew(cfg)
	per := len(s.batches)
	for done := 0; done < s.steps; done += per {
		n := per
		if s.steps-done < n {
			n = s.steps - done
		}
		if _, err := workloads.RunAutoEncoderEpoch(core.FuseME{}, sim, rowsOf(s.x, n*sz.c.Batch, sz.bs), sz.c, sz.lr, ref); err != nil {
			return nil, fmt.Errorf("sim reference: %w", err)
		}
	}
	ok := true
	detail := fmt.Sprintf("%d steps: all weights bit-identical", s.steps)
	for _, p := range []struct {
		name string
		a, b *block.Matrix
	}{{"W1", s.w.W1, ref.W1}, {"b1", s.w.B1, ref.B1}, {"W2", s.w.W2, ref.W2}, {"b2", s.w.B2, ref.B2},
		{"W3", s.w.W3, ref.W3}, {"b3", s.w.B3, ref.B3}, {"W4", s.w.W4, ref.W4}, {"b4", s.w.B4, ref.B4}} {
		if same, d := bitIdentical(p.a, p.b); !same {
			ok, detail = false, p.name+" "+d
			break
		}
	}
	out.check("ae.weights_match_sim", ok, "%s", detail)
	first, last := meanOf(s.losses[:per]), meanOf(s.losses[len(s.losses)-per:])
	out.check("ae.loss_falls", last < first, "first-epoch mean %.6g -> last-epoch mean %.6g over %d steps", first, last, len(s.losses))

	out.record = map[string]any{
		"shape": fmt.Sprintf("features %d, batch %d, H1 %d, H2 %d, %d examples, lr %g, block %d",
			sz.c.Features, sz.c.Batch, sz.c.H1, sz.c.H2, sz.examples, sz.lr, sz.bs),
		"cluster":               "2 TCP workers x 1 slot, oversubscribe 4, block cache 256 MiB",
		"net_bandwidth_mb_s":    cfg.NetBandwidth / 1e6,
		"comp_bandwidth_gflops": cfg.CompBandwidth / 1e9,
		"plan_operators":        len(s.pp.Ops),
		"steps":                 s.steps,
	}
	return out, nil
}

// rowsOf is the first n rows of x.
func rowsOf(x *block.Matrix, n, bs int) *block.Matrix {
	if n == x.Rows {
		return x
	}
	flat := matrix.ToDense(x.ToMat())
	sub := matrix.NewDenseData(n, x.Cols, append([]float64(nil), flat.Data[:n*x.Cols]...))
	return block.FromMat(sub, bs)
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return safeDiv(s, float64(len(xs)))
}
