package exec

import (
	"sync"

	"fuseme/internal/blockcache"
	"fuseme/internal/cluster"
	"fuseme/internal/matrix"
	"fuseme/internal/prefetch"
	"fuseme/internal/rt"
	"fuseme/internal/rt/spec"
)

// This file is the executor side of pipelined stage execution: the
// task-index-ordered stage reducer (streamed partial aggregation that stays
// bit-identical to barrier mode) and the simulated backend's prefetch model
// (so sim and TCP report the same fuseme_prefetch_* counters).

// taskEmit is one buffered result emission of a task.
type taskEmit struct {
	kind   uint8
	bi, bj int
	blk    matrix.Mat
}

// stageReducer folds stage results into the route sinks in strict task-index
// order, whatever order tasks complete in. Floating-point folds (OutAgg
// combines, OutPartial accumulation) are not associative bitwise, so fixing
// the fold order is what makes pipelined (streamed, out-of-order completion)
// execution bit-identical to barrier execution — and both backends
// bit-identical to each other — by construction. OutFinal blocks land in
// disjoint output slots, so they route immediately, unbuffered.
//
// In streamed mode each completed task folds the ready prefix [next, ...]
// eagerly, overlapping driver-side aggregation with still-running tasks; in
// barrier mode everything folds at finish. The fold sequence is identical
// either way.
type stageReducer struct {
	route    emitFn
	streamed bool

	mu   sync.Mutex
	buf  [][]taskEmit
	done []bool
	next int // lowest task index not yet folded
}

func newStageReducer(numTasks int, route emitFn, streamed bool) *stageReducer {
	return &stageReducer{
		route:    route,
		streamed: streamed,
		buf:      make([][]taskEmit, numTasks),
		done:     make([]bool, numTasks),
	}
}

// emitFor returns the emit function for one task attempt: ordered kinds
// buffer, final blocks pass through.
func (r *stageReducer) emitFor(taskID int) emitFn {
	return func(kind uint8, bi, bj int, blk matrix.Mat) {
		if kind == spec.OutFinal {
			r.route(kind, bi, bj, blk)
			return
		}
		r.mu.Lock()
		r.buf[taskID] = append(r.buf[taskID], taskEmit{kind: kind, bi: bi, bj: bj, blk: blk})
		r.mu.Unlock()
	}
}

// reset discards a task's buffered emissions. Called at the start of every
// attempt, so a failed attempt's partial output is never folded — the retry
// contributes exactly one task's worth of results.
func (r *stageReducer) reset(taskID int) {
	r.mu.Lock()
	r.buf[taskID] = nil
	r.done[taskID] = false
	r.mu.Unlock()
}

// complete marks a task's results final and, in streamed mode, folds the
// completed prefix.
func (r *stageReducer) complete(taskID int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done[taskID] = true
	if r.streamed {
		r.foldReadyLocked()
	}
}

// finish folds everything still buffered. Call once, after the stage
// succeeded (every task completed).
func (r *stageReducer) finish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.foldReadyLocked()
}

// foldReadyLocked folds the contiguous completed prefix, in task order.
func (r *stageReducer) foldReadyLocked() {
	for r.next < len(r.done) && r.done[r.next] {
		for _, e := range r.buf[r.next] {
			r.route(e.kind, e.bi, e.bj, e.blk)
		}
		r.buf[r.next] = nil
		r.next++
	}
}

// pending returns how many tasks have buffered, not-yet-folded output
// (completed tasks past a gap, plus in-flight buffers). Tests use it to
// assert the reducer drains.
func (r *stageReducer) pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := r.next; i < len(r.buf); i++ {
		if len(r.buf[i]) > 0 || r.done[i] {
			n++
		}
	}
	return n
}

// fetchRecorder wraps a blockSource, recording the ordered refs a task
// pulled. The recorded list is the task's prefetch hint for the next
// execution of the same stage shape. Cache hits never reach the source, so
// the list is exactly the task's transfer set — which is also why the TCP
// worker records the same list in its own fetch closure.
type fetchRecorder struct {
	src  blockSource
	refs []spec.BlockRef
}

func (r *fetchRecorder) fetch(ref spec.BlockRef) (matrix.Mat, error) {
	r.refs = append(r.refs, ref)
	return r.src.fetch(ref)
}

// simPrefetcher models, on the simulated backend, the prefetch a TCP worker
// performs: while task t runs, its worker pulls the recorded inputs of the
// successor the shared hint function names (prefetch.Hints.Next over the
// Nodes×TasksPerNode lanes), skipping blocks already resident in the
// successor's node cache, bounded by the admission budget. The model meters
// counters only (the successor's own fetch path still moves and meters the
// blocks), so wire and cache accounting stay exactly equal to a barrier run.
type simPrefetcher struct {
	hints  prefetch.Hints
	budget int64
	lanes  int
	sp     *spec.Stage
	src    blockSource
	cacher rt.BlockCacher
	gen    uint64
}

// model runs the admission loop for task's successor and meters the result.
func (p *simPrefetcher) model(task *cluster.Task) {
	next, hints := p.hints.Next(task.ID, p.lanes)
	if next < 0 {
		return
	}
	var cache *blockcache.Cache
	if p.cacher != nil {
		cache = p.cacher.TaskCache(next)
	}
	resident := func(ref spec.BlockRef) bool {
		key, ok := prefetch.CacheKey(p.sp, ref)
		return ok && cache != nil && cache.Contains(key, p.gen)
	}
	fetch := func(ref spec.BlockRef) (int64, bool) {
		m, err := p.src.fetch(ref)
		if err != nil {
			return 0, false
		}
		if m == nil {
			return 0, true
		}
		return m.SizeBytes(), true
	}
	blocks, bytes := prefetch.Admit(hints, p.budget, resident, fetch)
	task.AddPrefetch(blocks, bytes)
}
