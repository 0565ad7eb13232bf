package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"fuseme"
	"fuseme/internal/block"
	"fuseme/internal/cfg"
	"fuseme/internal/matrix"
	"fuseme/internal/opt"
	"fuseme/internal/serve"
)

// The serve-sim queries: the NMF kernel of Section 2.2, summed per row so
// that every response carries all of its values at a small size, and the
// ALS weighted squared loss of Figure 1(a).
const (
	nmfQuery = "O = rowSums(X * log(U %*% t(V) + 1e-3))"
	alsQuery = "loss = sum((X != 0) * (X - U %*% W)^2)"
)

// serveSize shapes serve-sim: the skewed rating matrix, the factor ranks
// registered as datasets (plan-cache hits) and the range new ranks are drawn
// from (plan-cache misses).
type serveSize struct {
	rows, cols, bs int
	density, skew  float64
	hitRanks       []int
	missLo, missN  int // misses use ranks missLo .. missLo+missN-1
	warmRanks      []int
}

// serveClients is the number of tenants, each one closed-loop client.
const serveClients = 2

// missEvery makes one request in missEvery a plan-cache miss.
const missEvery = 5

// serveRequest is one request a client sends, and what came back.
type serveRequest struct {
	kind  string // "nmf" or "als"
	rank  int
	miss  bool
	seeds [2]int64 // generator seeds of a miss's factors

	status  int
	digest  string
	latency float64
}

func (r *serveRequest) body(sz serveSize) ([]byte, error) {
	q := serve.QueryRequest{Script: nmfQuery, Inputs: map[string]serve.InputSpec{"X": {Dataset: "X"}}}
	second := "V"
	if r.kind == "als" {
		q.Script, second = alsQuery, "W"
	}
	if !r.miss {
		q.Inputs["U"] = serve.InputSpec{Dataset: fmt.Sprintf("U%d", r.rank)}
		q.Inputs[second] = serve.InputSpec{Dataset: fmt.Sprintf("%s%d", second, r.rank)}
		return json.Marshal(q)
	}
	q.Inputs["U"] = serve.InputSpec{Rows: sz.rows, Cols: r.rank,
		Random: &serve.RandomSpec{Kind: "dense", Lo: 0.2, Hi: 0.8, Seed: r.seeds[0]}}
	rows, cols := sz.cols, r.rank // V: items x k
	if r.kind == "als" {
		rows, cols = r.rank, sz.cols // W: k x items
	}
	q.Inputs[second] = serve.InputSpec{Rows: rows, Cols: cols,
		Random: &serve.RandomSpec{Kind: "dense", Lo: 0.2, Hi: 0.8, Seed: r.seeds[1]}}
	return json.Marshal(q)
}

// factors are the matrices a request binds, built the way the server
// builds them.
func (r *serveRequest) factors(sz serveSize, data map[string]*fuseme.Matrix) (script string, inputs map[string]*fuseme.Matrix) {
	script, second := nmfQuery, "V"
	if r.kind == "als" {
		script, second = alsQuery, "W"
	}
	inputs = map[string]*fuseme.Matrix{"X": data["X"]}
	if !r.miss {
		inputs["U"] = data[fmt.Sprintf("U%d", r.rank)]
		inputs[second] = data[fmt.Sprintf("%s%d", second, r.rank)]
		return script, inputs
	}
	inputs["U"] = fuseme.NewRandomDenseMatrix(sz.rows, r.rank, sz.bs, 0.2, 0.8, r.seeds[0])
	rows, cols := sz.cols, r.rank
	if r.kind == "als" {
		rows, cols = r.rank, sz.cols
	}
	inputs[second] = fuseme.NewRandomDenseMatrix(rows, cols, sz.bs, 0.2, 0.8, r.seeds[1])
	return script, inputs
}

// digestOutputs hashes every output's name, shape, nnz and value bits.
func digestOutputs(names []string, get func(name string) (rows, cols, nnz int, values []float64)) string {
	sort.Strings(names)
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range names {
		rows, cols, nnz, values := get(name)
		fmt.Fprintf(h, "%s:%dx%d:%d:", name, rows, cols, nnz)
		for _, v := range values {
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// serveState is one serve-sim set-up: the service behind a loopback HTTP
// listener, its datasets and the clients' connection pools.
type serveState struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	data   map[string]*fuseme.Matrix
	tokens []string
}

func (s *serveState) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

func serveCluster(bs int) fuseme.ClusterConfig {
	return fuseme.ClusterConfig{
		Nodes: 2, TasksPerNode: 1, TaskMemBytes: 4 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: bs,
	}
}

// skewedDataset is the power-law rating matrix as a server dataset.
func skewedDataset(sz serveSize, seed int64) (*fuseme.Matrix, error) {
	x := block.RandomSparseSkewed(sz.rows, sz.cols, sz.bs, sz.density, sz.skew, 1, 5, seed)
	var buf bytes.Buffer
	if err := matrix.WriteTo(&buf, x.ToMat()); err != nil {
		return nil, err
	}
	return fuseme.ReadMatrixFrom(&buf, sz.bs)
}

func serveSetup(e *env, sz serveSize) (*serveState, error) {
	s := &serveState{data: map[string]*fuseme.Matrix{}}
	var tenants []serve.Tenant
	for c := 0; c < serveClients; c++ {
		tok := fmt.Sprintf("token-%d", c)
		tenants = append(tenants, serve.Tenant{Name: fmt.Sprintf("tenant-%d", c), Token: tok, Weight: 1})
		s.tokens = append(s.tokens, tok)
	}
	srv, err := serve.New(serve.Config{Cluster: serveCluster(sz.bs), Tenants: tenants})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	x, err := skewedDataset(sz, seedOf(e.seed, 21))
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.data["X"] = x
	for i, k := range sz.hitRanks {
		base := seedOf(e.seed, int64(30+3*i))
		s.data[fmt.Sprintf("U%d", k)] = fuseme.NewRandomDenseMatrix(sz.rows, k, sz.bs, 0.2, 0.8, base)
		s.data[fmt.Sprintf("V%d", k)] = fuseme.NewRandomDenseMatrix(sz.cols, k, sz.bs, 0.2, 0.8, base+1)
		s.data[fmt.Sprintf("W%d", k)] = fuseme.NewRandomDenseMatrix(k, sz.cols, sz.bs, 0.2, 0.8, base+2)
	}
	for name, m := range s.data {
		srv.RegisterDataset(name, m)
	}
	s.ts = httptest.NewServer(srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}

	// Warm-up: every hit plan once, so the timed hits find it cached, and
	// one miss of each kind at ranks the timed section never uses.
	var warm []*serveRequest
	for _, kind := range []string{"nmf", "als"} {
		for _, k := range sz.hitRanks {
			warm = append(warm, &serveRequest{kind: kind, rank: k})
		}
		for _, k := range sz.warmRanks {
			warm = append(warm, &serveRequest{kind: kind, rank: k, miss: true, seeds: [2]int64{int64(k), int64(k) + 1}})
		}
	}
	for _, r := range warm {
		if _, err := s.send(r, sz, 0, nil, nil, -1); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if r.status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("warm-up: HTTP %d", r.status)
		}
	}
	return s, nil
}

// send posts one request as tenant c and records its status, digest and
// latency; for a traced request it also returns the per-layer values.
func (s *serveState) send(r *serveRequest, sz serveSize, c int, tr *tracer, root *active, op int) (map[string]float64, error) {
	t0 := time.Now()
	body, err := r.body(sz)
	if err != nil {
		return nil, err
	}
	sp := tr.start("serve.request", root, op)
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-FuseMe-Token", s.tokens[c])
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end()
	if err != nil {
		return nil, err
	}
	r.status = resp.StatusCode
	if r.status != http.StatusOK {
		r.latency = time.Since(t0).Seconds()
		return nil, fmt.Errorf("HTTP %d: %s", r.status, bytes.TrimSpace(data))
	}
	sp = tr.start("serve.decode", root, op)
	var qr serve.QueryResponse
	err = json.Unmarshal(data, &qr)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	names := make([]string, 0, len(qr.Outputs))
	for name := range qr.Outputs {
		names = append(names, name)
	}
	r.digest = digestOutputs(names, func(name string) (int, int, int, []float64) {
		o := qr.Outputs[name]
		return o.Rows, o.Cols, o.NNZ, o.Values
	})
	r.latency = time.Since(t0).Seconds()
	if tr == nil {
		return nil, nil
	}
	queue, exec := qr.QueueMillis/1e3, qr.ExecMillis/1e3
	st := qr.Stats
	return map[string]float64{
		"serve.queue_s":   queue,
		"serve.exec_s":    exec,
		"serve.rt_wall_s": st.WallSeconds,
		"serve.front_s":   r.latency - queue - exec,
		"rt.stages":       float64(st.Stages),
		"rt.tasks":        float64(st.Tasks),
		"exec.flops":      float64(st.Flops),
		// The sim backend reports no task seconds; its stages run
		// in-process with no wire, so their wall time is compute time.
		"compute_sum_s": st.WallSeconds,
	}, nil
}

// clientPlan is the request sequence of tenant c: a seeded mix of the two
// queries, one in missEvery a query at a rank it has not run at, the rest
// at the registered ranks. The misses walk a seeded permutation of all
// (query, rank) pairs of the miss range, each tenant its own half, so the
// sequence does not depend on timing and miss ranks are spread evenly over
// the range however many misses a run sends.
type clientPlan struct {
	rng    *rand.Rand
	pairs  []int // 2*rank offset + query
	sz     serveSize
	misses int
	c      int
	seed   int64
}

func newClientPlans(sz serveSize, seed int64) []*clientPlan {
	perm := rand.New(rand.NewSource(seedOf(seed, 40))).Perm(2 * sz.missN)
	plans := make([]*clientPlan, serveClients)
	for c := range plans {
		p := &clientPlan{rng: rand.New(rand.NewSource(seedOf(seed, int64(41+c)))), sz: sz, c: c, seed: seed}
		for i := c; i < len(perm); i += serveClients {
			p.pairs = append(p.pairs, perm[i])
		}
		plans[c] = p
	}
	return plans
}

func (p *clientPlan) next() *serveRequest {
	r := &serveRequest{kind: "nmf"}
	if p.rng.Intn(2) == 1 {
		r.kind = "als"
	}
	if p.rng.Intn(missEvery) != 0 {
		r.rank = p.sz.hitRanks[p.rng.Intn(len(p.sz.hitRanks))]
		return r
	}
	r.miss = true
	pair := 2*(p.sz.missN+serveClients*(p.misses-len(p.pairs))+p.c) + p.misses%2
	if p.misses < len(p.pairs) {
		pair = p.pairs[p.misses]
	} // else past the permutation: ranks above the range stay unseen
	r.rank, r.kind = p.sz.missLo+pair/2, [2]string{"nmf", "als"}[pair%2]
	p.misses++
	s := seedOf(p.seed, int64(1000*r.rank))
	r.seeds = [2]int64{s, s + 1}
	return r
}

func runServe(e *env) (*outcome, error) {
	sz := serveSize{rows: 2048, cols: 1024, bs: 128, density: 0.01, skew: 1,
		hitRanks: []int{16, 32}, missLo: 40, missN: 256, warmRanks: []int{33, 34}}
	if e.tiny {
		sz = serveSize{rows: 64, cols: 48, bs: 16, density: 0.1, skew: 1,
			hitRanks: []int{4, 8}, missLo: 10, missN: 32, warmRanks: []int{9}}
	}
	out := &outcome{layer: map[string]float64{}}
	s, err := setUp(out, func() (*serveState, error) { return serveSetup(e, sz) }, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer s.close()

	// Timed section: each tenant is a closed-loop client, sending its next
	// request when the previous one has returned.
	plans := newClientPlans(sz, e.seed)
	pc0 := s.srv.PlanCacheStats()
	gen0, search0 := cfg.GenerateCalls(), opt.SearchCalls()
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	perClient := make([][]opSample, serveClients)
	reqs := make([][]*serveRequest, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline) || len(perClient[c]) < e.minOps/serveClients; j++ {
				r := plans[c].next()
				var tr *tracer
				if e.tr != nil && j%2 == 0 {
					tr = e.tr
				}
				root := tr.start("op", nil, j*serveClients+c)
				layer, err := s.send(r, sz, c, tr, root, j*serveClients+c)
				root.end()
				if err != nil {
					fmt.Fprintf(e.log, "tenant %d request %d failed: %v\n", c, j, err)
				}
				perClient[c] = append(perClient[c], opSample{seconds: r.latency, ok: err == nil, traced: tr != nil, layer: layer})
				e.mem.sample()
				reqs[c] = append(reqs[c], r)
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start).Seconds()
	pc1 := s.srv.PlanCacheStats()
	gen1, search1 := cfg.GenerateCalls(), opt.SearchCalls()

	done := make([]float64, serveClients)
	rejects, misses := 0, 0
	for c := range perClient {
		out.ops = append(out.ops, perClient[c]...)
		for i, o := range perClient[c] {
			if o.ok {
				done[c]++
			}
			if reqs[c][i].status != http.StatusOK {
				rejects++
			}
			if reqs[c][i].miss {
				misses++
			}
		}
	}
	n := float64(len(out.ops))
	lo, hi := done[0], done[0]
	for _, d := range done {
		lo, hi = math.Min(lo, d), math.Max(hi, d)
	}
	lookups := float64(pc1.Hits - pc0.Hits + pc1.Misses - pc0.Misses)
	out.layer["plancache.hit_ratio"] = safeDiv(float64(pc1.Hits-pc0.Hits), lookups)
	out.layer["sched.fairness"] = safeDiv(lo, hi)
	out.layer["serve.rejects"] = float64(rejects) / n
	out.layer["cfg.generate_calls"] = float64(gen1-gen0) / n
	out.layer["opt.search_calls"] = float64(search1-search0) / n

	// Correctness: every response matches a serial session run of the same
	// request (shape, nnz and value bits).
	if err := checkServe(out, sz, s.data, reqs); err != nil {
		return nil, err
	}
	out.record = map[string]any{
		"shape": fmt.Sprintf("X %dx%d power-law sparse (density %g, skew %g), block %d, hit ranks %v, miss ranks %d..%d",
			sz.rows, sz.cols, sz.density, sz.skew, sz.bs, sz.hitRanks, sz.missLo, sz.missLo+sz.missN-1),
		"x_nnz":   s.data["X"].NNZ(),
		"cluster": "sim runtime, 2 nodes x 1 slot, default plan cache; 2 tenants, closed loop over loopback HTTP",
		"misses":  misses,
	}
	return out, nil
}

// checkServe replays each distinct request on its own fuseme.Session run
// serially (two sessions share the replays, one per core) and compares
// digests.
func checkServe(out *outcome, sz serveSize, data map[string]*fuseme.Matrix, reqs [][]*serveRequest) error {
	distinct := map[string]*serveRequest{}
	var keys []string
	for _, list := range reqs {
		for _, r := range list {
			if k := r.key(); r.status == http.StatusOK && distinct[k] == nil {
				distinct[k] = r
				keys = append(keys, k)
			}
		}
	}
	want := make(map[string]string, len(keys))
	var mu sync.Mutex
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := fuseme.NewSession(serveCluster(sz.bs))
			if err != nil {
				errs[w] = err
				return
			}
			defer sess.Close()
			for i := w; i < len(keys); i += serveClients {
				d, err := serialDigest(sess, distinct[keys[i]], sz, data)
				if err != nil {
					errs[w] = fmt.Errorf("serial reference %s: %w", keys[i], err)
					return
				}
				mu.Lock()
				want[keys[i]] = d
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	checked, bad := 0, 0
	firstBad := ""
	for _, list := range reqs {
		for _, r := range list {
			if r.status != http.StatusOK {
				continue
			}
			checked++
			if d := want[r.key()]; d != r.digest {
				bad++
				if firstBad == "" {
					firstBad = fmt.Sprintf("; first mismatch %s: %s vs serial %s", r.key(), r.digest, d)
				}
			}
		}
	}
	out.check("serve.responses_match_serial", bad == 0 && checked > 0,
		"%d responses, %d distinct requests replayed, %d mismatched%s", checked, len(keys), bad, firstBad)
	return nil
}

// key identifies a request's query and inputs.
func (r *serveRequest) key() string {
	return fmt.Sprintf("%s/%d/%v/%v", r.kind, r.rank, r.miss, r.seeds)
}

// serialDigest runs r on sess and digests its outputs.
func serialDigest(sess *fuseme.Session, r *serveRequest, sz serveSize, data map[string]*fuseme.Matrix) (string, error) {
	script, inputs := r.factors(sz, data)
	for name, m := range inputs {
		sess.Bind(name, m)
	}
	defer func() {
		for name := range inputs {
			sess.Unbind(name)
		}
	}()
	res, err := sess.Query(script)
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(res))
	for name := range res {
		names = append(names, name)
	}
	return digestOutputs(names, func(name string) (int, int, int, []float64) {
		rows, cols := res[name].Dims()
		return rows, cols, res[name].NNZ(), res[name].Dense()
	}), nil
}
