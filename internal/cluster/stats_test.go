package cluster

import (
	"reflect"
	"testing"
)

// runningMax names the Stats fields that hold maxima, not sums: Add and
// AddTask keep the larger value and Sub passes them through.
var runningMax = map[string]bool{"PeakTaskMemBytes": true, "MaxTaskFlops": true}

// fillFields sets every numeric field of the struct v points to a distinct
// nonzero value base+index.
func fillFields(t *testing.T, v any, base int) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(base + i))
		case reflect.Float64:
			f.SetFloat(float64(base + i))
		default:
			t.Fatalf("%s.%s: unhandled kind %s", rv.Type().Name(), rv.Type().Field(i).Name, f.Kind())
		}
	}
}

// fieldValue reads a numeric field as float64 (every counter fits exactly).
func fieldValue(f reflect.Value) float64 {
	if f.Kind() == reflect.Float64 {
		return f.Float()
	}
	return float64(f.Int())
}

// TestStatsAddSubEveryField fills every Stats field and requires Sub to undo
// Add: each summed field comes back as the added value, each running-max
// field as the larger of the two. A field added to Stats without a line in
// Add or Sub fails here.
func TestStatsAddSubEveryField(t *testing.T) {
	for _, bases := range [][2]int{{1, 1000}, {1000, 1}} {
		var prev, delta Stats
		fillFields(t, &prev, bases[0])
		fillFields(t, &delta, bases[1])
		cur := prev
		cur.Add(delta)
		got := reflect.ValueOf(cur.Sub(prev))
		p, d := reflect.ValueOf(prev), reflect.ValueOf(delta)
		for i := 0; i < got.NumField(); i++ {
			name := got.Type().Field(i).Name
			want := fieldValue(d.Field(i))
			if runningMax[name] {
				want = max(fieldValue(p.Field(i)), want)
			}
			if g := fieldValue(got.Field(i)); g != want {
				t.Errorf("bases %v: (prev+delta).Sub(prev).%s = %v, want %v", bases, name, g, want)
			}
		}
	}
}

// TestAddTaskFoldsEveryField sets one TaskMetrics field at a time and
// requires AddTask to land it in exactly its Stats field (Flops also feeds
// the MaxTaskFlops maximum) and nowhere else. A counter added to TaskMetrics
// without a fold fails here.
func TestAddTaskFoldsEveryField(t *testing.T) {
	dest := map[string][]string{
		"MemPeakBytes": {"PeakTaskMemBytes"},
		"Flops":        {"Flops", "MaxTaskFlops"},
	}
	mt := reflect.TypeOf(TaskMetrics{})
	for i := 0; i < mt.NumField(); i++ {
		name := mt.Field(i).Name
		var m TaskMetrics
		f := reflect.ValueOf(&m).Elem().Field(i)
		if f.Kind() == reflect.Float64 {
			f.SetFloat(7)
		} else {
			f.SetInt(7)
		}
		want := map[string]float64{"Tasks": 1}
		targets, ok := dest[name]
		if !ok {
			targets = []string{name}
		}
		for _, tgt := range targets {
			want[tgt] = 7
		}
		var s Stats
		s.AddTask(m)
		sv := reflect.ValueOf(s)
		for j := 0; j < sv.NumField(); j++ {
			sname := sv.Type().Field(j).Name
			if g := fieldValue(sv.Field(j)); g != want[sname] {
				t.Errorf("AddTask(%s=7): Stats.%s = %v, want %v", name, sname, g, want[sname])
			}
		}
		for _, tgt := range targets {
			if _, exists := sv.Type().FieldByName(tgt); !exists {
				t.Errorf("TaskMetrics.%s has no Stats field %s to fold into", name, tgt)
			}
		}
	}
}

// TestStageSecondsEq2 pins the Eq. 2 stage clock: the slower of network and
// compute time plus one TaskOverhead per wave of tasks.
func TestStageSecondsEq2(t *testing.T) {
	cfg := Config{Nodes: 2, TasksPerNode: 2, NetBandwidth: 100, CompBandwidth: 1000, TaskOverhead: 0.5}
	cases := []struct {
		bytes, flops float64
		tasks        int
		want         float64
	}{
		{bytes: 400, flops: 1000, tasks: 0, want: 2},               // network-bound, no tasks
		{bytes: 400, flops: 8000, tasks: 4, want: 4.5},             // compute-bound, one wave
		{bytes: 400, flops: 1000, tasks: 5, want: 2 + 1},           // two waves
		{bytes: 0, flops: 0, tasks: 9, want: 3 * cfg.TaskOverhead}, // overhead only
	}
	for _, c := range cases {
		if got := cfg.StageSeconds(c.bytes, c.flops, c.tasks); got != c.want {
			t.Errorf("StageSeconds(%v, %v, %d) = %v, want %v", c.bytes, c.flops, c.tasks, got, c.want)
		}
	}
}
