// Package prefetch implements record-and-replay input prefetching for
// pipelined stage execution. Each execution of a stage records, per task,
// the ordered block references the task actually pulled over the fetch
// path; on re-execution of the same stage shape (iterative workloads re-run
// identical stages every iteration) that history becomes the prefetch hint
// for the task's queue successor, so a worker can pull the next task's
// inputs while the current task's kernel runs.
//
// Hints come only from earlier executions of a stage shape: a stage reads
// its hints from a Snapshot of the history taken at stage start, and
// records its own tasks' fetch lists without changing that snapshot. The
// first execution of a shape therefore prefetches nothing, whatever order
// its tasks finish in.
//
// This package is the whole prefetch policy. Both runtime backends take the
// same snapshot, ask the same hint function (Hints.Next) for a task's
// successor, key residency the same way (CacheKey) and admit through the
// same loop (Admit), so the prefetch counters they report are equal by
// construction: the simulated cluster models a prefetch exactly where a TCP
// worker issues one.
package prefetch

import (
	"fmt"
	"sync"

	"fuseme/internal/blockcache"
	"fuseme/internal/rt/spec"
)

// maxStages bounds the number of stage shapes the history retains; the
// oldest recorded stage is dropped first. Iterative workloads re-execute a
// handful of distinct stages, so the cap only matters for long-lived
// sessions running many different plans.
const maxStages = 256

// History stores, per stage shape, the ordered fetch list of every task's
// last successful execution. Safe for concurrent use.
type History struct {
	mu     sync.Mutex
	stages map[string][][]spec.BlockRef // stageKey → per-task ordered refs
	order  []string                     // FIFO of stage keys for eviction
}

// NewHistory returns an empty history.
func NewHistory() *History { return &History{stages: make(map[string][][]spec.BlockRef)} }

// stageKey identifies a stage shape: re-executions of the same compiled
// stage carry the same name (phase:label#nodeID) and task count, so their
// per-task fetch sets are identical run to run.
func stageKey(name string, numTasks int) string {
	return fmt.Sprintf("%s|%d", name, numTasks)
}

// Record stores the ordered fetch list of one successful task execution,
// replacing any earlier recording for the same task. A nil refs slice
// records "fetched nothing", which suppresses prefetch for that task.
func (h *History) Record(name string, numTasks, taskID int, refs []spec.BlockRef) {
	if h == nil || taskID < 0 || taskID >= numTasks {
		return
	}
	key := stageKey(name, numTasks)
	cp := make([]spec.BlockRef, len(refs))
	copy(cp, refs)
	h.mu.Lock()
	defer h.mu.Unlock()
	tasks, ok := h.stages[key]
	if !ok {
		if len(h.order) >= maxStages {
			delete(h.stages, h.order[0])
			h.order = h.order[1:]
		}
		tasks = make([][]spec.BlockRef, numTasks)
		h.stages[key] = tasks
		h.order = append(h.order, key)
	}
	tasks[taskID] = cp
}

// Stages returns how many stage shapes the history currently retains.
func (h *History) Stages() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.stages)
}

// Hints is the frozen hint set of one stage execution. The zero value (a
// shape that never completed) hints nothing.
type Hints struct {
	tasks [][]spec.BlockRef // per-task recorded refs; entries are never mutated
}

// Snapshot freezes the history of one stage shape. Take it at stage start:
// Records made afterwards, including by the stage's own tasks, do not show
// in it, so a stage's hints never depend on how far the stage has run.
func (h *History) Snapshot(name string, numTasks int) Hints {
	if h == nil {
		return Hints{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// Record replaces a task's slice and never writes into one, so copying
	// the outer slice is enough to freeze the set.
	return Hints{tasks: append([][]spec.BlockRef(nil), h.stages[stageKey(name, numTasks)]...)}
}

// Refs returns task's recorded fetch list, or nil when the task has none.
// The returned slice must not be mutated.
func (s Hints) Refs(task int) []spec.BlockRef {
	if task < 0 || task >= len(s.tasks) {
		return nil
	}
	return s.tasks[task]
}

// Next is the hint function: the successor a lane running task prefetches
// for, and that successor's recorded refs. Under home placement with lanes
// dispatch lanes in total (Nodes×TasksPerNode on the simulated cluster,
// workers×task slots over TCP), the next task a lane has not yet started is
// task + lanes; anything nearer is already running on a sibling lane. next
// is -1 and refs nil when the successor is past the stage or has no
// recorded refs.
func (s Hints) Next(task, lanes int) (next int, refs []spec.BlockRef) {
	if lanes < 1 {
		return -1, nil
	}
	next = task + lanes
	if refs = s.Refs(next); len(refs) == 0 {
		return -1, nil
	}
	return next, refs
}

// CacheKey maps a block reference of stage sp to the block-cache key it is
// resident under. ok is false for non-input refs (partials are never
// cached) and for inputs the stage advertises no epoch for (caching off).
func CacheKey(sp *spec.Stage, ref spec.BlockRef) (key blockcache.Key, ok bool) {
	if ref.Kind != spec.RefInput {
		return key, false
	}
	ep, ok := sp.EpochOf(ref.Node)
	if !ok {
		return key, false
	}
	return blockcache.Key{Node: ref.Node, Epoch: ep, BI: ref.BI, BJ: ref.BJ}, true
}

// Admit runs the deterministic prefetch admission loop over a hint list:
// refs are visited in recorded order, resident(ref) skips blocks already
// cached at the target, and fetch(ref) pulls an admitted block, returning
// its in-memory size. A ref is issued while the cumulative admitted bytes
// are strictly below budget (so one block may overflow the budget, never
// two). A failed fetch stops the loop — prefetch is best-effort and the
// task's own fetch path remains authoritative.
//
// Both backends count prefetch traffic through this one loop, which is what
// keeps fuseme_prefetch_* counters equal between sim and TCP runs.
func Admit(refs []spec.BlockRef, budget int64, resident func(spec.BlockRef) bool, fetch func(spec.BlockRef) (int64, bool)) (blocks, bytes int64) {
	for _, ref := range refs {
		if bytes >= budget {
			break
		}
		if resident != nil && resident(ref) {
			continue
		}
		n, ok := fetch(ref)
		if !ok {
			break
		}
		blocks++
		bytes += n
	}
	return blocks, bytes
}
