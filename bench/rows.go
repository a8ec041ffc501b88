package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// row is the one shape every number of the benchmark is written in.
type row struct {
	Workload string  `json:"workload"`
	Layer    string  `json:"layer"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	// N is the number of repetitions Value is the median of; Min and Max
	// are the smallest and largest repetition.
	N    int     `json:"n"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Seed int64   `json:"seed"`
	SHA  string  `json:"sha"`
}

// layerEndToEnd is the layer of the rows a user of the system would see.
const layerEndToEnd = "end_to_end"

// layerOf is the module a per-layer metric belongs to: the prefix of its
// name.
func layerOf(metric string) string {
	if layer, _, ok := strings.Cut(metric, "."); ok {
		return layer
	}
	return layerEndToEnd
}

// unitOf derives a per-layer metric's unit from the suffix of its name.
func unitOf(metric string) string {
	if u, ok := endToEndUnits[metric]; ok {
		return u
	}
	for _, s := range []struct{ suffix, unit string }{
		{"_per_kinv", "ms/kinv"}, {"_bytes_per_inv", "B/inv"}, {"_per_inv", "1/inv"}, {"_per_recovery", "1/recovery"},
		{"_per_msg", "1/msg"}, {"_per_s", "1/s"}, {"_share", "ratio"}, {"_share_1ms", "ratio"},
		{"_pct", "%"}, {"_ns", "ns"}, {"_us", "us"}, {"_ms", "ms"}, {"_mb", "MB"},
	} {
		if strings.HasSuffix(metric, s.suffix) {
			return s.unit
		}
	}
	return "count"
}

// sha names the commit under test. run.sh passes it in; a checkout that
// is not a git repository has none.
func sha() string {
	if s := os.Getenv("ETERNAL_BENCH_SHA"); s != "" {
		return s
	}
	return "unknown"
}

// rowsOf turns per-repetition values into rows, one per metric, sorted by
// name.
func rowsOf(workload string, seed int64, perRep ...values) []row {
	byMetric := make(map[string][]float64)
	for _, v := range perRep {
		for name, x := range v {
			byMetric[name] = append(byMetric[name], x)
		}
	}
	rows := make([]row, 0, len(byMetric))
	for name, xs := range byMetric {
		s := summarize(xs)
		rows = append(rows, row{
			Workload: workload, Layer: layerOf(name), Metric: name, Unit: unitOf(name),
			Value: s.Value, N: s.N, Min: s.Min, Max: s.Max, Seed: seed, SHA: sha(),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Metric < rows[j].Metric })
	return rows
}

// outDir is bench/out when run from the root of the checkout (the
// driver's way) and out when run from inside bench/.
func outDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func writeRows(path string, rows []row) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(rows); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func readRows(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []row
	if err := json.NewDecoder(f).Decode(&rows); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return rows, nil
}

// manifest is BENCHMARK.json, as far as -compare needs it.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readManifest() (manifest, error) {
	var m manifest
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			return m, fmt.Errorf("%s: %w", p, err)
		}
		return m, nil
	}
	return m, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// compare prints, for every (workload, metric) pair the two row files
// share, how far b moved from a, and marks end-to-end pairs of the
// manifest's workloads that got worse by more than their bound. It returns
// the number of such pairs.
func compare(w io.Writer, a, b []row, m manifest) int {
	type key struct{ workload, metric string }
	base := make(map[key]row)
	for _, r := range a {
		base[key{r.Workload, r.Metric}] = r
	}
	bounds := make(map[string]float64)
	lowerBetter := make(map[string]bool)
	for _, e := range m.EndToEnd {
		bounds[e.Name] = e.Bound
		lowerBetter[e.Name] = e.Better == "lower"
	}
	gated := make(map[string]bool)
	for _, wl := range m.Workloads {
		gated[wl.Name] = true
	}
	regressions := 0
	fmt.Fprintf(w, "%-16s %-36s %14s %14s %9s  %s\n", "workload", "metric", "a", "b", "delta", "verdict")
	for _, r := range b {
		old, ok := base[key{r.Workload, r.Metric}]
		if !ok {
			continue
		}
		delta := ratio(r.Value-old.Value, old.Value)
		verdict := ""
		if bound, ok := bounds[r.Metric]; ok && r.Layer == layerEndToEnd && !gated[r.Workload] {
			verdict = "no bound: workload not in BENCHMARK.json"
		} else if ok && r.Layer == layerEndToEnd {
			worse := delta
			if !lowerBetter[r.Metric] {
				worse = -delta
			}
			verdict = fmt.Sprintf("within %.0f%%", bound*100)
			if worse > bound {
				verdict = fmt.Sprintf("WORSE by more than %.0f%%", bound*100)
				regressions++
			}
		}
		fmt.Fprintf(w, "%-16s %-36s %14.4f %14.4f %+8.1f%%  %s\n", r.Workload, r.Metric, old.Value, r.Value, delta*100, verdict)
	}
	return regressions
}
