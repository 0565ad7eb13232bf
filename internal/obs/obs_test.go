package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every call on nil receivers must be a no-op, not a panic.
	var o *Obs
	if o.Enabled() || o.PerTask() {
		t.Fatal("nil Obs should report disabled")
	}
	sp := o.StartSpan("x", "stage", 0)
	sp.Arg("k", 1)
	sp.End()
	o.Counter("c").Add(3)
	o.Counter("c").Inc()
	o.Gauge("g").Set(1.5)
	o.Histogram("h").Observe(0.1)
	o.RecordStage(FlightRecord{Op: "a"}, nil)
	o.Reset()

	var r *Recorder
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder should be empty")
	}
	r.Reset()

	var c *Calibration
	c.Observe(FlightRecord{})
	c.Reset()
	if c.DrainWindow() != nil {
		t.Fatal("nil calibration should hold nothing")
	}
	if got := c.Report(ClusterModel{Nodes: 4}); len(got.Rows) != 0 {
		t.Fatal("nil calibration should report no rows")
	}

	var reg *Registry
	reg.Counter("x").Inc()
	reg.Reset()
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}

	// Obs with only some components set.
	partial := &Obs{Calib: NewCalibration()}
	if !partial.Enabled() {
		t.Fatal("calib-only Obs should be enabled")
	}
	if partial.PerTask() {
		t.Fatal("calib-only Obs should not run per-task instrumentation")
	}
	partial.StartSpan("x", "stage", 0).End()
	partial.Counter("c").Inc()
}

func TestRecorderChromeTrace(t *testing.T) {
	r := NewRecorder()
	outer := r.Start("stage:mul#1", "stage", 0).
		Arg("phase", "cuboid").Arg("P", 2).Arg("Q", 2).Arg("R", 1)
	inner := r.Start("task 3", "task", 1)
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()

	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	var b strings.Builder
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(doc.TraceEvents))
	}
	// Inner (task) span ends first so it is recorded first.
	task, stage := doc.TraceEvents[0], doc.TraceEvents[1]
	if task.Name != "task 3" || task.Cat != "task" || task.TID != 1 {
		t.Fatalf("task event wrong: %+v", task)
	}
	if stage.Name != "stage:mul#1" || stage.Ph != "X" {
		t.Fatalf("stage event wrong: %+v", stage)
	}
	if stage.Args["phase"] != "cuboid" || stage.Args["P"] != float64(2) {
		t.Fatalf("stage args wrong: %v", stage.Args)
	}
	// Nesting: the stage span must enclose the task span in time.
	if !(stage.TS <= task.TS && stage.TS+stage.Dur >= task.TS+task.Dur) {
		t.Fatalf("stage [%g,%g] does not enclose task [%g,%g]",
			stage.TS, stage.TS+stage.Dur, task.TS, task.TS+task.Dur)
	}
	if task.Dur < 900 { // slept 1ms; durations are µs
		t.Fatalf("task dur = %gµs, want ≥ 900", task.Dur)
	}

	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset should discard events")
	}
}

func TestRegistryMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MTasksTotal).Add(5)
	reg.Counter(MTasksTotal).Inc()
	reg.Counter(MConsolidationBytes).Add(1000)
	reg.Counter(MAggregationBytes).Add(200)
	reg.Gauge(MWorkersAlive).Set(3)
	h := reg.Histogram(MTaskSeconds)
	h.Observe(0.002)
	h.Observe(0.2)
	h.Observe(250) // beyond last bound → +Inf bucket

	if got := reg.Counter(MTasksTotal).Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	snap := reg.Snapshot()
	if snap.Counters[MConsolidationBytes] != 1000 {
		t.Fatalf("snapshot counters = %v", snap.Counters)
	}
	if snap.Gauges[MWorkersAlive] != 3 {
		t.Fatalf("snapshot gauges = %v", snap.Gauges)
	}
	hs := snap.Histograms[MTaskSeconds]
	if hs.Count != 3 || hs.Max != 250 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	wantMean := (0.002 + 0.2 + 250) / 3
	if diff := hs.Mean - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean = %g, want %g", hs.Mean, wantMean)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE fuseme_tasks_total counter\n",
		"fuseme_tasks_total 6\n",
		// One TYPE line for the labelled family, then each series.
		"# TYPE fuseme_wire_bytes_total counter\n",
		`fuseme_wire_bytes_total{class="aggregation"} 200` + "\n",
		`fuseme_wire_bytes_total{class="consolidation"} 1000` + "\n",
		"# TYPE fuseme_workers_alive gauge\n",
		"fuseme_workers_alive 3\n",
		"# TYPE fuseme_task_seconds histogram\n",
		`fuseme_task_seconds_bucket{le="+Inf"} 3` + "\n",
		"fuseme_task_seconds_count 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "# TYPE fuseme_wire_bytes_total") != 1 {
		t.Fatalf("labelled family should get exactly one TYPE line:\n%s", text)
	}
	// Cumulative buckets: the 2.5ms bucket holds 1 observation, 0.25s holds 2.
	if !strings.Contains(text, `fuseme_task_seconds_bucket{le="0.0025"} 1`+"\n") ||
		!strings.Contains(text, `fuseme_task_seconds_bucket{le="0.25"} 2`+"\n") {
		t.Fatalf("cumulative buckets wrong:\n%s", text)
	}

	reg.Reset()
	if reg.Counter(MTasksTotal).Value() != 0 {
		t.Fatal("Reset should zero counters")
	}
	if reg.Gauge(MWorkersAlive).Value() != 3 {
		t.Fatal("Reset should keep gauge values")
	}
	if reg.Snapshot().Histograms[MTaskSeconds].Count != 0 {
		t.Fatal("Reset should zero histograms")
	}
}

func TestCalibrationReport(t *testing.T) {
	c := NewCalibration()
	model := ClusterModel{Nodes: 4, NetBandwidth: 125e6, CompBandwidth: 546e9}

	// Net-bound operator: predicted net term 8e9/(4·125e6) = 16s dominates
	// the comp term 4e9/(4·546e9) ≈ 0.0018s. It moved 4e9 bytes in 10s wall
	// → eff B̂n = 4e9/(4·10) = 1e8.
	c.Observe(FlightRecord{Stage: "cuboid:mul#1", Op: "CFO mul#1", Kind: "CFO", P: 2, Q: 2, R: 1, Tasks: 4,
		PredNetBytes: 8e9, PredComFlops: 4e9, PredMemBytes: 64 << 20,
		MeasConsolidationBytes: 3e9, MeasAggregationBytes: 1e9, MeasFlops: 4e9,
		MeasPeakTaskMemBytes: 50 << 20, MeasWallSeconds: 10})
	// Comp-bound operator: 8e12 flops in 5s wall → eff B̂c = 8e12/(4·5) = 4e11.
	c.Observe(FlightRecord{Stage: "cuboid:mul#2", Op: "CFO mul#2", Kind: "CFO", P: 4, Q: 1, R: 1, Tasks: 4,
		PredNetBytes: 1e6, PredComFlops: 8e12, PredMemBytes: 32 << 20,
		MeasConsolidationBytes: 1e6, MeasFlops: 8e12, MeasWallSeconds: 5})

	rep := c.Report(model)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	r1, r2 := rep.Rows[0], rep.Rows[1]
	if r1.Op != "CFO mul#1" || r1.P != 2 || r1.Kind != "CFO" {
		t.Fatalf("row 1 = %+v", r1)
	}
	if r1.MeasNetBytes != 4e9 || r1.Tasks != 4 || r1.Stages != 1 || r1.Executions != 1 {
		t.Fatalf("row 1 measurements = %+v", r1)
	}
	if want := 8e9 / (4 * 125e6); !close2(r1.PredSeconds, want) {
		t.Fatalf("row 1 PredSeconds = %g, want %g", r1.PredSeconds, want)
	}
	if !close2(r1.EffNetBW, 1e8) {
		t.Fatalf("row 1 EffNetBW = %g, want 1e8", r1.EffNetBW)
	}
	if !close2(r2.EffCompBW, 4e11) {
		t.Fatalf("row 2 EffCompBW = %g, want 4e11", r2.EffCompBW)
	}
	// Aggregates: only mul#1 is net-bound, only mul#2 comp-bound.
	if !close2(rep.EffNetBW, 1e8) || !close2(rep.EffCompBW, 4e11) {
		t.Fatalf("back-solved = %g / %g, want 1e8 / 4e11", rep.EffNetBW, rep.EffCompBW)
	}

	out := rep.String()
	for _, want := range []string{"CFO mul#1", "(2,2,1)", "back-solved", "feed back with"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestCalibrationIterativeExecutions(t *testing.T) {
	c := NewCalibration()
	stage := func(name string) FlightRecord {
		return FlightRecord{Stage: name, Op: "CFO mul#1", Kind: "CFO", P: 2, Q: 2, R: 2,
			PredNetBytes: 1e9, PredComFlops: 1e9}
	}
	// Three iterations, each with a partial and a fuse stage.
	for i := 0; i < 3; i++ {
		partial := stage("partial:mul#1")
		partial.Tasks, partial.MeasConsolidationBytes, partial.MeasFlops, partial.MeasWallSeconds = 8, 5e8, 1e9, 1
		c.Observe(partial)
		fuse := stage("fuse:mul#1")
		fuse.Tasks, fuse.MeasAggregationBytes, fuse.MeasWallSeconds = 4, 5e8, 0.5
		c.Observe(fuse)
	}

	rep := c.Report(ClusterModel{Nodes: 2, NetBandwidth: 125e6, CompBandwidth: 546e9})
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	row := rep.Rows[0]
	if row.Executions != 3 || row.Stages != 6 {
		t.Fatalf("executions = %d stages = %d, want 3/6", row.Executions, row.Stages)
	}
	if row.PredNetBytes != 3e9 { // scaled by executions
		t.Fatalf("PredNetBytes = %d, want 3e9", row.PredNetBytes)
	}
	if row.MeasNetBytes != 3e9 {
		t.Fatalf("MeasNetBytes = %d", row.MeasNetBytes)
	}

	c.Reset()
	if rep := c.Report(ClusterModel{Nodes: 2}); len(rep.Rows) != 0 {
		t.Fatal("Reset should clear records")
	}
}

// TestCalibrationConcurrentDrain streams records from several goroutines
// while another drains windows and renders reports: every stage lands in
// exactly one window and in the report's totals.
func TestCalibrationConcurrentDrain(t *testing.T) {
	c := NewCalibration()
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Observe(FlightRecord{Stage: "s", Op: fmt.Sprintf("op%d", w%2), MeasWallSeconds: 1})
			}
		}(w)
	}
	done := make(chan struct{})
	drained := 0.0
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, win := range c.DrainWindow() {
				drained += win.WallSeconds
			}
			c.Report(ClusterModel{Nodes: 2})
		}
	}()
	wg.Wait()
	<-done
	for _, win := range c.DrainWindow() {
		drained += win.WallSeconds
	}
	if drained != writers*perWriter {
		t.Errorf("windows drained %g stage-seconds, want %d", drained, writers*perWriter)
	}
	stages := 0
	for _, row := range c.Report(ClusterModel{Nodes: 2}).Rows {
		stages += row.Stages
	}
	if stages != writers*perWriter {
		t.Errorf("report counts %d stages, want %d", stages, writers*perWriter)
	}
}

// TestRecordStageFansOut requires one stage record to reach every sink
// unchanged: the calibration aggregate, the learner, the per-stage counters,
// the flight file and the journal's stage_end event.
func TestRecordStageFansOut(t *testing.T) {
	var flight bytes.Buffer
	j := NewJournal(0)
	model := ClusterModel{Nodes: 2, NetBandwidth: 1e9, CompBandwidth: 50e9}
	o := &Obs{
		Calib:   NewCalibration(),
		Metrics: NewRegistry(),
		Flight:  NewFlightRecorder(&flight),
		Learn:   &Learner{Store: NewCalibStore(), Key: CalibKey{Workers: 2}, Model: model},
		QLog:    j.Begin("q1", ""),
	}
	rec := sampleRecord("cuboid:mul#3")
	rec.CacheEvictions, rec.PrefetchBlocks, rec.StealTasks = 3, 5, 1
	o.RecordStage(rec, errors.New("boom"))

	if rows := o.Calib.Report(model).Rows; len(rows) != 1 || rows[0].MeasNetBytes != rec.MeasNetBytes() {
		t.Errorf("calibration rows = %+v", rows)
	}
	if o.Learn.Store.Len() != 1 {
		t.Errorf("learner folded %d entries, want 1", o.Learn.Store.Len())
	}
	for name, want := range map[string]int64{
		MStagesTotal: 1, MConsolidationBytes: rec.MeasConsolidationBytes,
		MAggregationBytes: rec.MeasAggregationBytes, MExtraBytes: rec.MeasExtraWireBytes,
		MFlopsTotal: rec.MeasFlops, MCacheHits: rec.CacheHits, MCacheMisses: rec.CacheMisses,
		MCacheEvictions: 3, MPrefetchBlocks: 5, MStealTasks: 1, MCalibUpdates: 1,
	} {
		if got := o.Metrics.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if err := o.Flight.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFlightRecords(&flight)
	if err != nil || len(recs) != 1 || recs[0] != rec {
		t.Errorf("flight file = %+v, %v; want the record", recs, err)
	}
	events := j.Events("q1")
	if len(events) != 1 || events[0].Type != EvStageEnd || events[0].Flight == nil ||
		*events[0].Flight != rec || events[0].Error != "boom" || events[0].Seconds != rec.MeasWallSeconds {
		t.Errorf("journal = %+v", events)
	}
}

func TestServeMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MTasksTotal).Add(7)
	srv, err := ServeMetrics("127.0.0.1:0", reg, func() any {
		return map[string]int{"stages": 2}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	if !strings.Contains(string(body), "fuseme_tasks_total 7") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	resp, err = http.Get("http://" + srv.Addr() + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Metrics Snapshot       `json:"metrics"`
		Stats   map[string]int `json:"stats"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/stats not JSON: %v\n%s", err, body)
	}
	if doc.Metrics.Counters[MTasksTotal] != 7 || doc.Stats["stages"] != 2 {
		t.Fatalf("/debug/stats = %+v", doc)
	}

	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("Close: %v", err)
	}
	var nilSrv *Server
	if nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Fatal("nil server should be inert")
	}
}

func close2(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*(absf(a)+absf(b)+1)
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
