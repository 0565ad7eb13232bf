package prefetch

import (
	"fmt"
	"reflect"
	"testing"

	"fuseme/internal/blockcache"
	"fuseme/internal/rt/spec"
)

func ref(node, bi, bj int) spec.BlockRef {
	return spec.BlockRef{Kind: spec.RefInput, Node: node, BI: bi, BJ: bj}
}

func TestHistoryRecordSnapshot(t *testing.T) {
	h := NewHistory()
	if got := h.Snapshot("s", 4).Refs(1); got != nil {
		t.Fatalf("empty history returned %v", got)
	}
	refs := []spec.BlockRef{ref(1, 0, 0), ref(2, 0, 1)}
	h.Record("s", 4, 1, refs)
	got := h.Snapshot("s", 4).Refs(1)
	if !reflect.DeepEqual(got, refs) {
		t.Fatalf("Refs = %v, want %v", got, refs)
	}
	// Other tasks of the stage are still unrecorded.
	if got := h.Snapshot("s", 4).Refs(0); got != nil {
		t.Fatalf("unrecorded task returned %v", got)
	}
	// Same name with a different task count is a different stage shape.
	if got := h.Snapshot("s", 8).Refs(1); got != nil {
		t.Fatalf("different shape returned %v", got)
	}
	// Re-recording replaces.
	h.Record("s", 4, 1, []spec.BlockRef{ref(9, 9, 9)})
	if got := h.Snapshot("s", 4).Refs(1); len(got) != 1 || got[0] != ref(9, 9, 9) {
		t.Fatalf("re-record not applied: %v", got)
	}
	// Out-of-range records are ignored.
	h.Record("s", 4, 7, refs)
	h.Record("s", 4, -1, refs)
	if got := h.Snapshot("s", 4).Refs(7); got != nil {
		t.Fatalf("out-of-range record stored: %v", got)
	}
}

func TestHistoryEviction(t *testing.T) {
	h := NewHistory()
	for i := 0; i < maxStages+10; i++ {
		h.Record(fmt.Sprintf("stage-%d", i), 1, 0, []spec.BlockRef{ref(i, 0, 0)})
	}
	if got := h.Stages(); got != maxStages {
		t.Fatalf("history retains %d stages, want %d", got, maxStages)
	}
	if got := h.Snapshot("stage-0", 1).Refs(0); got != nil {
		t.Fatalf("oldest stage survived eviction: %v", got)
	}
	if got := h.Snapshot(fmt.Sprintf("stage-%d", maxStages+9), 1).Refs(0); got == nil {
		t.Fatal("newest stage missing after eviction")
	}
}

func TestHistoryNilReceiver(t *testing.T) {
	var h *History
	h.Record("s", 1, 0, nil)
	if got := h.Snapshot("s", 1).Refs(0); got != nil {
		t.Fatalf("nil history returned %v", got)
	}
	if got := h.Stages(); got != 0 {
		t.Fatalf("nil history has %d stages", got)
	}
}

// TestSnapshotFrozen: Records made after a snapshot — new tasks, replaced
// tasks, new shapes — change no hint drawn from it. This is what keeps a
// stage from hinting from its own already-finished tasks.
func TestSnapshotFrozen(t *testing.T) {
	h := NewHistory()
	h.Record("s", 6, 2, []spec.BlockRef{ref(1, 2, 0)})
	snap := h.Snapshot("s", 6)
	empty := h.Snapshot("t", 6)

	type hint struct {
		next int
		refs []spec.BlockRef
	}
	all := func(s Hints) (out []hint) {
		for task := -1; task < 8; task++ {
			for lanes := 0; lanes < 8; lanes++ {
				next, refs := s.Next(task, lanes)
				out = append(out, hint{next, refs})
			}
		}
		return out
	}
	before, beforeEmpty := all(snap), all(empty)

	h.Record("s", 6, 2, []spec.BlockRef{ref(7, 7, 7)})
	for task := 0; task < 6; task++ {
		h.Record("s", 6, task, []spec.BlockRef{ref(3, task, 1)})
		h.Record("t", 6, task, []spec.BlockRef{ref(4, task, 1)})
	}
	if !reflect.DeepEqual(all(snap), before) {
		t.Fatal("a Record after Snapshot changed a hint of the snapshot")
	}
	if !reflect.DeepEqual(all(empty), beforeEmpty) {
		t.Fatal("a Record after Snapshot gave an empty snapshot hints")
	}
	if next, refs := empty.Next(0, 1); next != -1 || refs != nil {
		t.Fatalf("snapshot of an unrecorded shape hints (%d, %v)", next, refs)
	}
	// A fresh snapshot does see the new records.
	if next, refs := h.Snapshot("t", 6).Next(0, 1); next != 1 || len(refs) != 1 {
		t.Fatalf("fresh snapshot hints (%d, %v), want task 1's record", next, refs)
	}
}

// TestHintNextEmpty: no hint when the successor is past the stage, has no
// recorded refs, recorded an empty fetch list, or when there are no lanes.
func TestHintNextEmpty(t *testing.T) {
	h := NewHistory()
	h.Record("s", 4, 1, []spec.BlockRef{ref(1, 1, 0)})
	h.Record("s", 4, 3, nil) // fetched nothing
	snap := h.Snapshot("s", 4)
	for _, tc := range []struct{ task, lanes int }{
		{2, 2},  // successor 4 is past the 4-task stage
		{3, 5},  // far past
		{0, 2},  // successor 2 never recorded
		{1, 2},  // successor 3 recorded an empty list
		{1, 0},  // no lanes
		{1, -1}, // negative lanes
	} {
		if next, refs := snap.Next(tc.task, tc.lanes); next != -1 || refs != nil {
			t.Errorf("Next(%d, %d) = (%d, %v), want (-1, nil)", tc.task, tc.lanes, next, refs)
		}
	}
	if next, refs := snap.Next(0, 1); next != 1 || len(refs) != 1 || refs[0] != ref(1, 1, 0) {
		t.Errorf("Next(0, 1) = (%d, %v), want task 1's record", next, refs)
	}
}

// TestHintNextPure: the hint depends only on (snapshot, task, lanes) — two
// snapshots of the same history state agree everywhere, repeated calls
// agree, and the successor is task+lanes with that task's recorded refs.
func TestHintNextPure(t *testing.T) {
	h := NewHistory()
	for task := 0; task < 12; task += 2 {
		h.Record("s", 12, task, []spec.BlockRef{ref(1, task, 0), ref(2, 0, task)})
	}
	a, b := h.Snapshot("s", 12), h.Snapshot("s", 12)
	for task := 0; task < 12; task++ {
		for lanes := 1; lanes <= 12; lanes++ {
			na, ra := a.Next(task, lanes)
			nb, rb := b.Next(task, lanes)
			na2, ra2 := a.Next(task, lanes)
			if na != nb || !reflect.DeepEqual(ra, rb) || na != na2 || !reflect.DeepEqual(ra, ra2) {
				t.Fatalf("Next(%d, %d) differs between equal snapshots or calls", task, lanes)
			}
			succ := task + lanes
			if want := a.Refs(succ); len(want) > 0 {
				if na != succ || !reflect.DeepEqual(ra, want) {
					t.Fatalf("Next(%d, %d) = (%d, %v), want (%d, %v)", task, lanes, na, ra, succ, want)
				}
			} else if na != -1 || ra != nil {
				t.Fatalf("Next(%d, %d) = (%d, %v), want no hint", task, lanes, na, ra)
			}
		}
	}
}

func TestCacheKey(t *testing.T) {
	sp := &spec.Stage{Epochs: []spec.NodeEpoch{{Node: 1, Epoch: 42}, {Node: 3, Epoch: 7}}}
	key, ok := CacheKey(sp, ref(3, 4, 5))
	if want := (blockcache.Key{Node: 3, Epoch: 7, BI: 4, BJ: 5}); !ok || key != want {
		t.Fatalf("input ref: CacheKey = (%+v, %v), want (%+v, true)", key, ok, want)
	}
	partial := spec.BlockRef{Kind: spec.RefPartial, Node: 1, BI: 0, BJ: 0}
	if key, ok := CacheKey(sp, partial); ok {
		t.Fatalf("non-input ref: CacheKey = (%+v, true), want ok=false", key)
	}
	if key, ok := CacheKey(sp, ref(2, 0, 0)); ok {
		t.Fatalf("input without epoch: CacheKey = (%+v, true), want ok=false", key)
	}
	if key, ok := CacheKey(&spec.Stage{}, ref(1, 0, 0)); ok {
		t.Fatalf("stage with caching off: CacheKey = (%+v, true), want ok=false", key)
	}
}

func TestAdmitBudget(t *testing.T) {
	refs := []spec.BlockRef{ref(1, 0, 0), ref(1, 0, 1), ref(1, 0, 2), ref(1, 0, 3)}
	var fetched []spec.BlockRef
	fetch := func(r spec.BlockRef) (int64, bool) {
		fetched = append(fetched, r)
		return 100, true
	}
	// Budget 250: first two admitted at cum 0 and 100, third at cum 200
	// (still < 250, one overflow allowed), fourth blocked at cum 300.
	blocks, bytes := Admit(refs, 250, nil, fetch)
	if blocks != 3 || bytes != 300 {
		t.Fatalf("Admit = (%d blocks, %d bytes), want (3, 300)", blocks, bytes)
	}
	if len(fetched) != 3 {
		t.Fatalf("fetched %v", fetched)
	}
}

func TestAdmitResidentSkips(t *testing.T) {
	refs := []spec.BlockRef{ref(1, 0, 0), ref(1, 0, 1), ref(1, 0, 2)}
	resident := func(r spec.BlockRef) bool { return r.BJ == 1 }
	var fetched []spec.BlockRef
	blocks, bytes := Admit(refs, 1<<20, resident, func(r spec.BlockRef) (int64, bool) {
		fetched = append(fetched, r)
		return 8, true
	})
	if blocks != 2 || bytes != 16 {
		t.Fatalf("Admit = (%d, %d), want (2, 16)", blocks, bytes)
	}
	if len(fetched) != 2 || fetched[0].BJ != 0 || fetched[1].BJ != 2 {
		t.Fatalf("fetched %v", fetched)
	}
	// Resident blocks do not consume budget: with budget 8, the resident
	// skip still lets the later ref through (cum 8 is not < 8, so only the
	// first non-resident ref is admitted).
	blocks, bytes = Admit(refs, 8, resident, func(r spec.BlockRef) (int64, bool) { return 8, true })
	if blocks != 1 || bytes != 8 {
		t.Fatalf("tight budget Admit = (%d, %d), want (1, 8)", blocks, bytes)
	}
}

func TestAdmitFetchFailureStops(t *testing.T) {
	refs := []spec.BlockRef{ref(1, 0, 0), ref(1, 0, 1), ref(1, 0, 2)}
	calls := 0
	blocks, bytes := Admit(refs, 1<<20, nil, func(r spec.BlockRef) (int64, bool) {
		calls++
		return 8, calls < 2 // second fetch fails
	})
	if blocks != 1 || bytes != 8 || calls != 2 {
		t.Fatalf("Admit = (%d, %d) after %d calls; want (1, 8) after 2", blocks, bytes, calls)
	}
}

func TestAdmitZeroBudget(t *testing.T) {
	blocks, bytes := Admit([]spec.BlockRef{ref(1, 0, 0)}, 0, nil, func(r spec.BlockRef) (int64, bool) {
		t.Fatal("fetch called with zero budget")
		return 0, false
	})
	if blocks != 0 || bytes != 0 {
		t.Fatalf("Admit = (%d, %d), want (0, 0)", blocks, bytes)
	}
}
