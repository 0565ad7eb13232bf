package remote_test

import (
	"testing"
	"time"

	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/rt/remote"
	"fuseme/internal/workloads"
)

// stealConfig over-decomposes stages (Oversubscribe waves on one lane per
// worker) so every worker's queue is several tasks deep at stage start: a
// straggler's queue then stays non-empty for (depth-1) task delays, wide
// enough that an idle worker reaches the steal path even when the machine
// is loaded. The sim reference in each test must use the same config —
// the plan (and therefore the accumulation order) depends on PlanSlots.
func stealConfig() cluster.Config {
	cfg := testConfig()
	cfg.TasksPerNode = 1
	cfg.Oversubscribe = 6
	return cfg
}

// startStealCluster launches n workers and a coordinator with one task lane
// per worker, so queue depth survives long enough for idle workers to have
// something to steal (with many lanes a worker's whole queue goes in-flight
// at stage start).
func startStealCluster(t *testing.T, n int) (*remote.Coordinator, []*remote.Worker) {
	t.Helper()
	cfg := stealConfig()
	cfg.Nodes = n
	return startLocal(t, cfg)
}

// TestRemoteStragglerSteal: with one worker slowed per task, the fast worker
// must drain its own queue and pull queued tasks off the straggler — and the
// result must still match the simulated reference, because stolen tasks fold
// through the same ordered reducer as home-run ones.
func TestRemoteStragglerSteal(t *testing.T) {
	const iters = 2
	bs := testConfig().BlockSize

	simCfg := stealConfig()
	x, u, v := gnmfInputs(bs)
	ref, err := workloads.RunGNMF(core.FuseME{}, cluster.MustNew(simCfg), x, u.Clone(), v.Clone(), iters)
	if err != nil {
		t.Fatal(err)
	}

	co, workers := startStealCluster(t, 2)
	workers[1].SetTaskDelay(20 * time.Millisecond)
	res, err := workloads.RunGNMF(core.FuseME{}, co, x, u, v, iters)
	if err != nil {
		t.Fatal(err)
	}
	compareMatrices(t, "U with straggler", res.U, ref.U)
	compareMatrices(t, "V with straggler", res.V, ref.V)
	if res.Total.StealTasks == 0 {
		t.Error("fast worker stole nothing from a 20ms/task straggler")
	}
	if ref.Total.StealTasks != 0 {
		t.Errorf("simulated backend reported %d steals; it has no queues to steal from", ref.Total.StealTasks)
	}
}
