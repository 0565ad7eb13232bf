package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// StagePred is one fused operator's compile-time cost prediction: the
// optimizer's NetEst/ComEst/MemEst at the chosen (P,Q,R). It travels with the
// operator into the executor, which stamps it on every stage record the
// operator runs; Op is the operator's display key, e.g. "CFO mul#12".
type StagePred struct {
	Op       string // operator key, e.g. "CFO mul#12"
	Kind     string // CFO, RFO, BFO, CuboidMM, Map, MultiAgg, ...
	P, Q, R  int
	NetBytes int64 // predicted cluster-wide network traffic
	ComFlops int64 // predicted cluster-wide floating-point work
	MemBytes int64 // predicted per-task memory
}

// Calibration is the per-operator running aggregate of stage records: the
// sums Report renders and the window Replanner.Divergence drains. It holds
// one entry per distinct operator key however many stages run, so a
// long-lived session's calibration state stays bounded. Safe for concurrent
// use; a nil *Calibration absorbs every call.
type Calibration struct {
	mu    sync.Mutex
	order []string          // operator keys in first-seen order
	ops   map[string]*opAgg // by operator key
}

// opAgg is one operator's running aggregate. row carries the latest
// prediction unscaled (Report scales it by the execution count) and the
// summed measurements.
type opAgg struct {
	row      ReportRow
	stages   map[string]bool // distinct stage names, to count executions
	inWindow bool            // a stage ran since the last DrainWindow
	wallWin  float64         // wall seconds since the last DrainWindow, in arrival order
}

// NewCalibration returns an empty aggregate.
func NewCalibration() *Calibration {
	return &Calibration{ops: map[string]*opAgg{}}
}

// Observe folds one stage record into its operator's aggregate.
func (c *Calibration) Observe(rec FlightRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.ops[rec.Op]
	if a == nil {
		a = &opAgg{stages: map[string]bool{}}
		c.ops[rec.Op] = a
		c.order = append(c.order, rec.Op)
	}
	row := &a.row
	row.Op, row.Kind, row.P, row.Q, row.R = rec.Op, rec.Kind, rec.P, rec.Q, rec.R
	row.PredNetBytes, row.PredComFlops, row.PredMemBytes = rec.PredNetBytes, rec.PredComFlops, rec.PredMemBytes
	row.Stages++
	row.Tasks += rec.Tasks
	row.MeasNetBytes += rec.MeasNetBytes()
	row.ExtraWireBytes += rec.MeasExtraWireBytes
	row.MeasFlops += rec.MeasFlops
	row.MeasWallSeconds += rec.MeasWallSeconds
	if rec.MeasPeakTaskMemBytes > row.MeasPeakMem {
		row.MeasPeakMem = rec.MeasPeakTaskMemBytes
	}
	a.stages[rec.Stage] = true
	a.inWindow = true
	a.wallWin += rec.MeasWallSeconds
}

// OpWindow is one operator's share of a DrainWindow: its latest prediction
// and the wall seconds its stages measured since the previous drain.
type OpWindow struct {
	PredNetBytes int64
	PredComFlops int64
	WallSeconds  float64
}

// DrainWindow returns every operator that ran a stage since the previous
// drain, in first-seen order, and starts a new window. The report's sums are
// unaffected.
func (c *Calibration) DrainWindow() []OpWindow {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []OpWindow
	for _, key := range c.order {
		a := c.ops[key]
		if !a.inWindow {
			continue
		}
		out = append(out, OpWindow{PredNetBytes: a.row.PredNetBytes,
			PredComFlops: a.row.PredComFlops, WallSeconds: a.wallWin})
		a.inWindow, a.wallWin = false, 0
	}
	return out
}

// Reset discards the aggregate.
func (c *Calibration) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.order = nil
	c.ops = map[string]*opAgg{}
	c.mu.Unlock()
}

// ReportFromFlight replays flight-recorder records (a -flight-out file) into
// a fresh aggregate and reports it: the offline report is produced by the
// same code as a live session's.
func ReportFromFlight(recs []FlightRecord, m ClusterModel) *Report {
	c := NewCalibration()
	for _, r := range recs {
		c.Observe(r)
	}
	return c.Report(m)
}

// ClusterModel carries the configured Eq. 2 constants the report compares
// measurements against.
type ClusterModel struct {
	Nodes         int
	NetBandwidth  float64 // configured B̂n, bytes/s per node
	CompBandwidth float64 // configured B̂c, flop/s per node
}

// nodes is N, with an unset node count read as one node.
func (m ClusterModel) nodes() float64 {
	if m.Nodes <= 0 {
		return 1
	}
	return float64(m.Nodes)
}

// Seconds is Eq. 2's two terms for predicted traffic and work under the
// configured constants: netBytes/(N·B̂n) and comFlops/(N·B̂c), each zero when
// its bandwidth is unset.
func (m ClusterModel) Seconds(netBytes, comFlops int64) (netSec, comSec float64) {
	n := m.nodes()
	if m.NetBandwidth > 0 {
		netSec = float64(netBytes) / (n * m.NetBandwidth)
	}
	if m.CompBandwidth > 0 {
		comSec = float64(comFlops) / (n * m.CompBandwidth)
	}
	return netSec, comSec
}

// effective back-solves a per-node bandwidth from a measured amount and the
// wall seconds it took: x/(N·wall). wall must be positive.
func (m ClusterModel) effective(x int64, wall float64) float64 {
	return float64(x) / (m.nodes() * wall)
}

// ReportRow joins one operator's prediction with its summed measurements.
type ReportRow struct {
	Op      string
	Kind    string
	P, Q, R int

	Stages, Tasks int
	Executions    int // how many times the operator ran (iterative workloads)

	PredNetBytes, MeasNetBytes   int64
	ExtraWireBytes               int64
	PredComFlops, MeasFlops      int64
	PredMemBytes, MeasPeakMem    int64
	PredSeconds, MeasWallSeconds float64 // predicted Eq. 2 time vs measured wall

	EffNetBW  float64 // measured net / (N * wall); 0 when wall is 0
	EffCompBW float64 // measured flops / (N * wall)
}

// Report is the calibration result: per-operator rows plus back-solved
// effective bandwidths.
type Report struct {
	Model ClusterModel
	Rows  []ReportRow

	// EffNetBW / EffCompBW are the back-solved effective bandwidths: B̂n from
	// network-bound rows (where the predicted network term dominates Eq. 2),
	// B̂c from compute-bound rows. Zero when no row of that class measured a
	// positive wall time.
	EffNetBW  float64
	EffCompBW float64

	// TaskLatency, when set, is the per-task latency distribution
	// (fuseme_task_seconds) captured alongside the calibration — the SLO
	// quantiles an operator reads off the report. Nil when per-task metrics
	// were off.
	TaskLatency *HistogramSnapshot
}

// Report renders the aggregate. Operators appear in first-seen order;
// stages without a prediction (in-process bookkeeping stages) group under
// their own key with zero predictions.
func (c *Calibration) Report(m ClusterModel) *Report {
	rep := &Report{Model: m}
	if c == nil {
		return rep
	}
	c.mu.Lock()
	rows := make([]ReportRow, 0, len(c.order))
	for _, key := range c.order {
		a := c.ops[key]
		row := a.row
		// Executions ≈ total stage records / distinct stage names.
		row.Executions = row.Stages / len(a.stages)
		rows = append(rows, row)
	}
	c.mu.Unlock()

	var netBytes, netWall, comFlops, comWall float64
	for _, row := range rows {
		execs := row.Executions
		if execs < 1 {
			execs = 1
		}
		// Predictions are per execution; scale to the number of runs so the
		// pred/meas columns compare like with like.
		row.PredNetBytes *= int64(execs)
		row.PredComFlops *= int64(execs)
		netSec, comSec := m.Seconds(row.PredNetBytes, row.PredComFlops)
		row.PredSeconds = netSec
		if comSec > netSec {
			row.PredSeconds = comSec
		}
		if row.MeasWallSeconds > 0 {
			row.EffNetBW = m.effective(row.MeasNetBytes, row.MeasWallSeconds)
			row.EffCompBW = m.effective(row.MeasFlops, row.MeasWallSeconds)
			// Eq. 2 takes the max of the two terms, so the measured wall time
			// of a stage reflects whichever resource bound it: attribute the
			// row to that class when back-solving.
			if netSec >= comSec && row.MeasNetBytes > 0 {
				netBytes += float64(row.MeasNetBytes)
				netWall += row.MeasWallSeconds
			} else if row.MeasFlops > 0 {
				comFlops += float64(row.MeasFlops)
				comWall += row.MeasWallSeconds
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	n := m.nodes()
	if netWall > 0 {
		rep.EffNetBW = netBytes / (n * netWall)
	}
	if comWall > 0 {
		rep.EffCompBW = comFlops / (n * comWall)
	}
	return rep
}

// String renders the report as an aligned text table with the back-solved
// bandwidths and a ready-to-paste configuration suggestion.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost-model calibration: N=%d, configured B̂n=%s, B̂c=%s\n",
		r.Model.Nodes, fmtRate(r.Model.NetBandwidth, "B/s"), fmtRate(r.Model.CompBandwidth, "flop/s"))
	if len(r.Rows) == 0 {
		b.WriteString("  (no stages recorded)\n")
		return b.String()
	}
	w := 0
	for _, row := range r.Rows {
		if len(row.Op) > w {
			w = len(row.Op)
		}
	}
	fmt.Fprintf(&b, "  %-*s %-11s %5s  %-23s %-23s %-12s %-13s %-13s\n",
		w, "operator", "(P,Q,R)", "runs", "net pred→meas", "comp pred→meas", "time pred→meas", "eff B̂n", "eff B̂c")
	for _, row := range r.Rows {
		pqr := "-"
		if row.P > 0 {
			pqr = fmt.Sprintf("(%d,%d,%d)", row.P, row.Q, row.R)
		}
		execs := row.Executions
		if execs < 1 {
			execs = 1
		}
		fmt.Fprintf(&b, "  %-*s %-11s %5d  %-23s %-23s %-12s %-13s %-13s\n",
			w, row.Op, pqr, execs,
			fmt.Sprintf("%s→%s", fmtCount(float64(row.PredNetBytes), "B"), fmtCount(float64(row.MeasNetBytes), "B")),
			fmt.Sprintf("%s→%s", fmtCount(float64(row.PredComFlops), "fl"), fmtCount(float64(row.MeasFlops), "fl")),
			fmt.Sprintf("%.3gs→%.3gs", row.PredSeconds, row.MeasWallSeconds),
			fmtRate(row.EffNetBW, "B/s"), fmtRate(row.EffCompBW, "fl/s"))
	}
	if r.EffNetBW > 0 || r.EffCompBW > 0 {
		b.WriteString("back-solved effective bandwidths:")
		if r.EffNetBW > 0 {
			fmt.Fprintf(&b, " B̂n ≈ %s (x%.2f of configured)", fmtRate(r.EffNetBW, "B/s"), ratio(r.EffNetBW, r.Model.NetBandwidth))
		}
		if r.EffCompBW > 0 {
			fmt.Fprintf(&b, " B̂c ≈ %s (x%.2f of configured)", fmtRate(r.EffCompBW, "flop/s"), ratio(r.EffCompBW, r.Model.CompBandwidth))
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "feed back with: ClusterConfig{NetBandwidth: %.3g, CompBandwidth: %.3g}\n",
			nonZero(r.EffNetBW, r.Model.NetBandwidth), nonZero(r.EffCompBW, r.Model.CompBandwidth))
	}
	if tl := r.TaskLatency; tl != nil && tl.Count > 0 {
		fmt.Fprintf(&b, "task latency: n=%d p50=%.3gs p95=%.3gs p99=%.3gs max=%.3gs\n",
			tl.Count, tl.P50, tl.P95, tl.P99, tl.Max)
	}
	return b.String()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nonZero(v, fallback float64) float64 {
	if v > 0 {
		return v
	}
	return fallback
}

// fmtRate renders a per-second rate with an SI prefix.
func fmtRate(v float64, unit string) string {
	if v <= 0 {
		return "-"
	}
	return fmtCount(v, unit)
}

// fmtCount renders a count with an SI prefix.
func fmtCount(v float64, unit string) string {
	prefixes := []struct {
		f float64
		p string
	}{{1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "K"}}
	i := sort.Search(len(prefixes), func(i int) bool { return v >= prefixes[i].f })
	if i == len(prefixes) {
		return fmt.Sprintf("%.3g %s", v, unit)
	}
	return fmt.Sprintf("%.3g %s%s", v/prefixes[i].f, prefixes[i].p, unit)
}
