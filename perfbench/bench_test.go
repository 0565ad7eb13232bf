package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"fuseme/internal/dag"
	"fuseme/internal/lang"
	"fuseme/internal/plancache"
	"fuseme/internal/workloads"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesTables: BENCHMARK.json names the same workloads
// and metrics, with the same units, as the tables the runs print from, and
// README.md says what each per-layer metric should move.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) != len(scenarios) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(b.Workloads), len(scenarios))
	}
	for i, w := range b.Workloads {
		if w.Name != scenarios[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, scenarios[i].name)
		}
	}
	same := func(kind string, file, table []metric) {
		if len(file) != len(table) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(file), len(table))
		}
		for i := range file {
			f, m := file[i], table[i]
			if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, perfbench %s/%s/%s",
					kind, i, f.Name, f.Unit, f.Better, m.Name, m.Unit, m.Better)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if !strings.Contains(string(readme), "`"+m.Name+"`") {
			t.Errorf("README.md does not describe %s", m.Name)
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced: each run
// passes its correctness checks and prints every metric BENCHMARK.json
// names, with its unit, on its last line.
func TestSmoke(t *testing.T) {
	b := loadBenchmark(t)
	spans := t.TempDir()
	for _, w := range scenarios {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run(&stdout, &stderr, []string{"--workload", w.name, "--seed", "3",
					"--seconds", "0.2", "--trace", trace, "--tiny", "--spans-dir", spans})
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := b.EndToEnd
				if trace == "1" {
					want = b.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s printed with unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !strings.Contains(stdout.String(), m.Name+" "):
						t.Errorf("metric %s missing from the readable lines", m.Name)
					}
				}
			})
		}
	}
}

// TestScriptsMatchWorkloads: the query texts the benchmark parses (so that
// it can time lang.Parse) build the same DAGs as the workloads package.
func TestScriptsMatchWorkloads(t *testing.T) {
	ae := workloads.AutoEncoderConfig{Features: 256, Batch: 128, H1: 64, H2: 16}
	for _, c := range []struct {
		name   string
		script string
		decls  map[string]lang.InputDecl
		want   *dag.Graph
	}{
		{"gnmf", gnmfScript, map[string]lang.InputDecl{
			"X": {Rows: 1024, Cols: 768, Sparsity: 1},
			"U": {Rows: 64, Cols: 768, Sparsity: 1},
			"V": {Rows: 1024, Cols: 64, Sparsity: 1},
		}, workloads.GNMF(1024, 768, 64, 1)},
		{"autoencoder", aeScript, aeDecls(ae), workloads.AutoEncoderStep(ae)},
	} {
		g, err := lang.Parse(c.script, c.decls)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if plancache.Canonicalize(g).Key != plancache.Canonicalize(c.want).Key {
			t.Errorf("%s: the benchmark's query differs from the workloads package's", c.name)
		}
	}
}

// TestBadArguments: an unknown workload exits non-zero without a result.
func TestBadArguments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"--workload", "nope", "--seconds", "1"}); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Fatalf("printed a result: %s", stdout.String())
	}
}

// TestQuantile pins the percentile interpolation.
func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5.5}, {0.9, 9.1}, {0, 1}, {1, 10}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}
