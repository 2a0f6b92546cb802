package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// testBin holds the activityd binary the remote-activity workload drives.
var testBin string

// TestMain doubles as the peer child: the replicated-2pc workload and the
// seam probes re-execute os.Args[0], which under go test is this binary.
func TestMain(m *testing.M) {
	maybePeer()
	dir, err := os.MkdirTemp("", "bench-test-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testBin = dir
	build := exec.Command("go", "build", "-o", filepath.Join(dir, "activityd"),
		"github.com/extendedtx/activityservice/cmd/activityd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build activityd:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeSeconds keeps each window to ~300 ms: enough for every workload to
// commit through its whole stack, children included.
const smokeSeconds = 0.3

func smokeConfig(t *testing.T, w workload) runConfig {
	return runConfig{w: w, seed: 7, seconds: smokeSeconds, binDir: testBin, tmpRoot: t.TempDir(), out: io.Discard}
}

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json and the program to the same
// workloads, metric names, units, directions and bounds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		better := "lower"
		if m.higherIsBetter {
			better = "higher"
		}
		want := jsonMetric{Name: m.name, Unit: m.unit, Better: better, Bound: m.bound}
		if bj.EndToEnd[i] != want {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, bj.EndToEnd[i], want)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if bj.PerLayer[i].Name != m.name || bj.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), program %s (%s)",
				i, bj.PerLayer[i].Name, bj.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}

// checkEmitted fails unless res carries exactly the metrics of defs.
func checkEmitted(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not emitted", d.name)
		} else if m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v %s, want a finite value in %s", d.name, m.Value, m.Unit, d.unit)
		}
	}
}

// TestSmokeTimed runs every workload's timed run end to end, children
// included, through the correctness gate.
func TestSmokeTimed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runTimed(smokeConfig(t, w))
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, endToEndMetrics)
			for _, d := range endToEndMetrics {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, res.Metrics[d.name].Value)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced run of the workload that crosses every
// seam, which also runs every probe and the account.
func TestSmokeTraced(t *testing.T) {
	w, _ := findWorkload("replicated-2pc")
	res, err := runTraced(smokeConfig(t, w))
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, res, layerMetrics)
	for name, want := range map[string]float64{"orb.calls_per_txn": 4, "wal.appends_per_txn": 2} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want exactly %v", name, got, want)
		}
	}
	for _, name := range []string{"remote.gate_wait_us.p50", "ots.stage_us.decision", "wal.fetch_us.100k", "orb.echo_rtt_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// TestGateTripsOnVeto makes one participant vote rollback: the run must end
// in a gate violation, not a result.
func TestGateTripsOnVeto(t *testing.T) {
	for _, name := range []string{"local-2pc", "durable-2pc"} {
		w, _ := findWorkload(name)
		c := smokeConfig(t, w)
		c.veto = true
		if _, err := runTimed(c); !errors.Is(err, errGate) {
			t.Errorf("%s with a vetoing resource: err = %v, want a correctness-gate violation", name, err)
		}
	}
	// The aggregate half of the gate on its own: a lost commit.
	lost := &tally{}
	lost.prepares.Store(4)
	lost.commits.Store(3)
	if err := lost.exactlyOnce(2, 2); err == nil {
		t.Error("exactlyOnce accepted 4 prepares against 3 commits")
	}
}

// TestQuartilesMatchPython pins the spread to what Python's
// statistics.quantiles(values, n=4) gives, which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 12, 11, 15, 14, 13, 19, 16, 18, 17})
	if q1 != 11.75 || q3 != 17.25 {
		t.Errorf("quartiles = %v, %v, want 11.75, 17.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "lat", bound: 0.10}
	higher := metricDef{name: "tps", higherIsBetter: true, bound: 0.10}
	for _, c := range []struct {
		m                   metricDef
		base, other, sa, sb float64
		want                string
	}{
		{lower, 100, 105, 0.02, 0.02, "unchanged"},
		{lower, 100, 115, 0.02, 0.02, "regressed"},
		{lower, 100, 85, 0.02, 0.02, "improved"},
		{higher, 100, 85, 0.02, 0.02, "regressed"},
		{higher, 100, 115, 0.02, 0.02, "improved"},
		{lower, 100, 115, 0.20, 0.02, "unresolved"},
		{lower, 100, 115, 0.02, 0.20, "unresolved"},
	} {
		if got := verdict(c.m, c.base, c.other, c.sa, c.sb); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, spreads %v %v) = %s, want %s", c.m.name, c.base, c.other, c.sa, c.sb, got, c.want)
		}
	}
}
