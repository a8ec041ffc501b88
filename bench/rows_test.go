package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Every number of the benchmark is written in one row shape with exactly
// these keys, and reads back as it was written.
func TestRowSchemaRoundTrip(t *testing.T) {
	t.Setenv("ETERNAL_BENCH_SHA", "abc1234")
	rows := rowsOf("active3_serial", 42,
		values{"inv_p99_us": 97, "totem.rotations_per_inv": 2.5},
		values{"inv_p99_us": 79, "totem.rotations_per_inv": 2.0},
		values{"inv_p99_us": 89, "totem.rotations_per_inv": 3.0},
	)
	want := []row{
		{Workload: "active3_serial", Layer: "end_to_end", Metric: "inv_p99_us", Unit: "us", Value: 89, N: 3, Min: 79, Max: 97, Seed: 42, SHA: "abc1234"},
		{Workload: "active3_serial", Layer: "totem", Metric: "totem.rotations_per_inv", Unit: "1/inv", Value: 2.5, N: 3, Min: 2, Max: 3, Seed: 42, SHA: "abc1234"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rowsOf:\n got %+v\nwant %+v", rows, want)
	}
	path := filepath.Join(t.TempDir(), "out", "rows.json")
	if err := writeRows(path, rows); err != nil {
		t.Fatal(err)
	}
	back, err := readRows(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, rows)
	}
	raw, _ := os.ReadFile(path)
	var generic []map[string]any
	if err := json.Unmarshal(raw, &generic); err != nil {
		t.Fatal(err)
	}
	keys := []string{"workload", "layer", "metric", "unit", "value", "n", "min", "max", "seed", "sha"}
	if len(generic[0]) != len(keys) {
		t.Errorf("row has %d keys, want %d: %v", len(generic[0]), len(keys), generic[0])
	}
	for _, k := range keys {
		if _, ok := generic[0][k]; !ok {
			t.Errorf("row lacks key %q", k)
		}
	}
}

func TestUnitsAndLayers(t *testing.T) {
	for metric, want := range map[string][2]string{
		"setup_s":                           {"end_to_end", "s"},
		"inv_per_s":                         {"end_to_end", "1/s"},
		"recovery_p50_ms":                   {"end_to_end", "ms"},
		"simnet.frames_per_inv":             {"simnet", "1/inv"},
		"process.cpu_ms_per_kinv":           {"process", "ms/kinv"},
		"client.slow_share_1ms":             {"client", "ratio"},
		"span.token-wait_p50_us":            {"span", "us"},
		"core.state_chunks_per_recovery":    {"core", "1/recovery"},
		"totem.ring3_stream_frames_per_msg": {"totem", "1/msg"},
		"totem.ring3_stream_msgs_per_s":     {"totem", "1/s"},
		"bench.trace_overhead_pct":          {"bench", "%"},
		"process.heap_peak_mb":              {"process", "MB"},
		"cdr.encode_req_ns":                 {"cdr", "ns"},
		"totem.tombstones":                  {"totem", "count"},
	} {
		if got := [2]string{layerOf(metric), unitOf(metric)}; got != want {
			t.Errorf("%s: layer/unit = %v, want %v", metric, got, want)
		}
	}
}

func TestCompareAgainstBounds(t *testing.T) {
	var m manifest
	if err := json.Unmarshal([]byte(`{"workloads":[{"name":"w1"},{"name":"w2"}],"end_to_end":[
		{"name":"inv_p99_us","unit":"us","better":"lower","bound":0.10},
		{"name":"inv_per_s","unit":"1/s","better":"higher","bound":0.10}]}`), &m); err != nil {
		t.Fatal(err)
	}
	e2e := func(w, metric string, v float64) row {
		return row{Workload: w, Layer: layerEndToEnd, Metric: metric, Value: v}
	}
	a := []row{
		e2e("w1", "inv_p99_us", 100), e2e("w1", "inv_per_s", 1000),
		e2e("w2", "inv_p99_us", 100), e2e("w2", "inv_per_s", 1000),
		{Workload: "w1", Layer: "totem", Metric: "totem.rotations_per_inv", Value: 2},
		e2e("local", "inv_p99_us", 100),
	}
	b := []row{
		e2e("w1", "inv_p99_us", 109), e2e("w1", "inv_per_s", 1200), // within, better
		e2e("w2", "inv_p99_us", 111), e2e("w2", "inv_per_s", 880), // both worse by more than 10%
		{Workload: "w1", Layer: "totem", Metric: "totem.rotations_per_inv", Value: 9}, // no bound
		e2e("w3", "inv_p99_us", 1),      // not in a
		e2e("local", "inv_p99_us", 300), // worse, but not a workload of the manifest
	}
	var out bytes.Buffer
	if got := compare(&out, a, b, m); got != 2 {
		t.Errorf("compare found %d regressions, want 2\n%s", got, out.String())
	}
	text := out.String()
	for _, want := range []string{"+9.0%", "+20.0%", "+11.0%", "-12.0%", "+350.0%", "WORSE by more than 10%", "+200.0%", "no bound: workload not in BENCHMARK.json"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "w3") {
		t.Errorf("compare printed a pair only one file has:\n%s", text)
	}
}

// benchmarkJSON is the driver's view of the benchmark; the code must agree
// with it on every name and unit.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != driverWorkloads {
		t.Fatalf("%d workloads in BENCHMARK.json, %d for the driver in the code", len(b.Workloads), driverWorkloads)
	}
	for i, w := range workloads[:driverWorkloads] {
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, b.Workloads[i].Name, w.Name)
		}
		if len(b.Workloads[i].Why) == 0 || len(b.Workloads[i].Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(b.Workloads[i].Why))
		}
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(b.EndToEnd), len(endToEndUnits))
	}
	sawSetup := false
	for _, e := range b.EndToEnd {
		if unit, ok := endToEndUnits[e.Name]; !ok || unit != e.Unit {
			t.Errorf("end-to-end %s [%s]: the code has unit %q", e.Name, e.Unit, unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		sawSetup = sawSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, p := range b.PerLayer {
		if unit := unitOf(p.Name); unit != p.Unit {
			t.Errorf("per-layer %s [%s]: the code derives unit %q", p.Name, p.Unit, unit)
		}
		if layerOf(p.Name) == layerEndToEnd {
			t.Errorf("per-layer %s has no module prefix", p.Name)
		}
	}
}
