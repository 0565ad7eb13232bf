package workloads

import (
	"fmt"

	"fuseme/internal/block"
	"fuseme/internal/core"
	"fuseme/internal/matrix"
	"fuseme/internal/rt"
)

// AdaptiveConfig configures the feedback-directed variants of the iterative
// runners: a Replanner checked at every iteration boundary, and an optional
// per-iteration observer for benches and tests.
type AdaptiveConfig struct {
	// Replanner performs the divergence check and in-place plan swap between
	// iterations. Required; its Obs is threaded through execution so the
	// check sees this run's stage measurements.
	Replanner *core.Replanner
	// OnIteration, when non-nil, is called after each iteration (and after
	// the boundary replan check) with the iteration index, the live physical
	// plan, and whether the check swapped any operator. The plan must not be
	// mutated by the callback.
	OnIteration func(iter int, pp *core.PhysPlan, replanned bool)
}

// residentInputs returns the loop-invariant input names the worker block
// caches will hold from the second iteration on: inputs bound to the same
// matrix with an unchanged content epoch across iterations qualify (GNMF's
// X; the factors are rebound every iteration, and in-place SGD updates
// restamp the weights' epochs, so neither ever qualifies). The epoch check
// matters because the block cache keys entries by content epoch — a mutated
// matrix misses even through an identical pointer. Nil when the cluster
// runs no cache: residency discounts must not apply when nothing is
// resident. prevEpochs is the previous iteration's binding snapshot (nil on
// the first iteration).
func residentInputs(rtm rt.Runtime, bound map[string]*block.Matrix, prevEpochs map[string]uint64) map[string]bool {
	if rtm.Config().CacheBytes <= 0 || prevEpochs == nil {
		return nil
	}
	res := map[string]bool{}
	for name, m := range bound {
		if m != nil && prevEpochs[name] == m.Epoch() {
			res[name] = true
		}
	}
	if len(res) == 0 {
		return nil
	}
	return res
}

// epochSnapshot records each binding's content epoch for the next
// iteration's residency check.
func epochSnapshot(bound map[string]*block.Matrix) map[string]uint64 {
	s := make(map[string]uint64, len(bound))
	for name, m := range bound {
		if m != nil {
			s[name] = m.Epoch()
		}
	}
	return s
}

// RunGNMFAdaptive is RunGNMF with feedback-directed re-planning: the plan
// compiles once, and after every iteration the Replanner compares measured
// stage times against predictions, re-picking eligible operators' (P,Q)
// with learned bandwidths and the observed cache residency when they
// diverge. Swaps happen only at iteration boundaries and only within the
// bit-safe parameter space, so results are bit-identical to RunGNMF.
func RunGNMFAdaptive(e core.Engine, rtm rt.Runtime, x, u, v *block.Matrix, iters int, ac AdaptiveConfig) (*GNMFResult, error) {
	if ac.Replanner == nil {
		return nil, fmt.Errorf("workloads: RunGNMFAdaptive requires a Replanner")
	}
	k := u.Rows
	g := GNMF(x.Rows, x.Cols, k, x.Density())
	pp, err := e.Compile(g, rtm.Config())
	if err != nil {
		return nil, fmt.Errorf("%s: compile GNMF: %w", e.Name(), err)
	}
	res := &GNMFResult{U: u, V: v}
	prev := rtm.Stats()
	var prevEpochs map[string]uint64
	for it := 0; it < iters; it++ {
		inputs := map[string]*block.Matrix{"X": x, "U": res.U, "V": res.V}
		out, err := core.ExecuteObs(pp, rtm, inputs, ac.Replanner.Obs)
		if err != nil {
			return nil, fmt.Errorf("%s: GNMF iteration %d: %w", e.Name(), it, err)
		}
		res.U, res.V = out["U2"], out["V2"]
		cur := rtm.Stats()
		res.PerIter = append(res.PerIter, cur.Sub(prev))
		prev = cur
		resident := residentInputs(rtm, inputs, prevEpochs)
		prevEpochs = epochSnapshot(inputs)
		replanned := false
		if it < iters-1 { // the last iteration has no successor to replan for
			replanned = ac.Replanner.MaybeReplan(pp, rtm.Config(), resident)
		}
		if ac.OnIteration != nil {
			ac.OnIteration(it, pp, replanned)
		}
	}
	res.Total = prev
	return res, nil
}

// RunAutoEncoderEpochAdaptive is RunAutoEncoderEpoch with the same
// boundary-checked re-planning, applied between mini-batches: the weights
// are rebound every batch but XT is freshly built each time, so on this
// workload residency never marks an input and re-picks come purely from
// learned bandwidths. Results are bit-identical to RunAutoEncoderEpoch.
func RunAutoEncoderEpochAdaptive(e core.Engine, rtm rt.Runtime, x *block.Matrix, c AutoEncoderConfig, lr float64, state *AEState, ac AdaptiveConfig) (float64, error) {
	if ac.Replanner == nil {
		return 0, fmt.Errorf("workloads: RunAutoEncoderEpochAdaptive requires a Replanner")
	}
	g := AutoEncoderStep(c)
	pp, err := e.Compile(g, rtm.Config())
	if err != nil {
		return 0, fmt.Errorf("%s: compile AutoEncoder: %w", e.Name(), err)
	}
	flat := x.ToMat()
	bs := rtm.Config().BlockSize
	var loss float64
	var prevEpochs map[string]uint64
	batches := 0
	for start := 0; start+c.Batch <= x.Rows; start += c.Batch {
		batches++
	}
	it := 0
	for start := 0; start+c.Batch <= x.Rows; start += c.Batch {
		xt := matrix.NewDense(c.Features, c.Batch)
		for i := 0; i < c.Batch; i++ {
			for j := 0; j < c.Features; j++ {
				xt.Set(j, i, flat.At(start+i, j))
			}
		}
		inputs := map[string]*block.Matrix{
			"XT": block.FromMat(xt, bs),
			"W1": state.W1, "b1": state.B1,
			"W2": state.W2, "b2": state.B2,
			"W3": state.W3, "b3": state.B3,
			"W4": state.W4, "b4": state.B4,
		}
		out, err := core.ExecuteObs(pp, rtm, inputs, ac.Replanner.Obs)
		if err != nil {
			return 0, fmt.Errorf("%s: AutoEncoder batch at %d: %w", e.Name(), start, err)
		}
		loss = out["loss"].At(0, 0)
		applySGD(state.W1, out["gW1"], lr)
		applySGD(state.B1, out["gb1"], lr)
		applySGD(state.W2, out["gW2"], lr)
		applySGD(state.B2, out["gb2"], lr)
		applySGD(state.W3, out["gW3"], lr)
		applySGD(state.B3, out["gb3"], lr)
		applySGD(state.W4, out["gW4"], lr)
		applySGD(state.B4, out["gb4"], lr)
		resident := residentInputs(rtm, inputs, prevEpochs)
		prevEpochs = epochSnapshot(inputs)
		replanned := false
		if it < batches-1 {
			replanned = ac.Replanner.MaybeReplan(pp, rtm.Config(), resident)
		}
		if ac.OnIteration != nil {
			ac.OnIteration(it, pp, replanned)
		}
		it++
	}
	return loss, nil
}
