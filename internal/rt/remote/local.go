package remote

import (
	"errors"

	"fuseme/internal/cluster"
)

// Local is an in-process TCP cluster: real workers listening on loopback
// ports and a coordinator over them, all in the calling process. Benches and
// tests use it to run the TCP runtime end to end without spawning processes.
type Local struct {
	Coordinator *Coordinator
	Workers     []*Worker
}

// StartLocal starts cfg.Nodes workers, each with cfg.CacheBytes as its
// block-cache budget, and a coordinator over them configured by cfg and
// rcfg. Close stops all of them.
func StartLocal(cfg cluster.Config, rcfg Config) (*Local, error) {
	workers, err := StartWorkers(cfg.Nodes, cfg.CacheBytes)
	if err != nil {
		return nil, err
	}
	l := &Local{Workers: workers}
	if l.Coordinator, err = NewCoordinatorConfig(cfg, l.Addrs(), rcfg); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// StartWorkers starts n workers on loopback ephemeral ports, each with
// cacheBytes as its block-cache budget (zero leaves caching off). On error
// the workers already started are closed.
func StartWorkers(n int, cacheBytes int64) ([]*Worker, error) {
	workers := make([]*Worker, 0, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker("127.0.0.1:0")
		if err != nil {
			for _, w := range workers {
				w.Close()
			}
			return nil, err
		}
		w.SetCacheBytes(cacheBytes)
		workers = append(workers, w)
	}
	return workers, nil
}

// Addrs returns the workers' listening addresses.
func (l *Local) Addrs() []string {
	addrs := make([]string, len(l.Workers))
	for i, w := range l.Workers {
		addrs[i] = w.Addr()
	}
	return addrs
}

// Close stops the coordinator, then every worker.
func (l *Local) Close() error {
	var errs []error
	if l.Coordinator != nil {
		errs = append(errs, l.Coordinator.Close())
	}
	for _, w := range l.Workers {
		errs = append(errs, w.Close())
	}
	return errors.Join(errs...)
}
