package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// Every workload runs end to end on a fresh cluster with a window far
// shorter than the benchmark's, through the same runner, and passes its own
// correctness checks.
func TestSmokeEachWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			span := 600 * time.Millisecond
			if w.Blob >= mib {
				span = 1500 * time.Millisecond // room for two 1 MiB recoveries
			}
			r, err := runRep(w, 7, span, nil)
			if err != nil {
				t.Fatal(err)
			}
			att, failed := r.count(r.measured())
			if att == 0 {
				t.Fatal("no invocation attempted")
			}
			if w.Name == "active2_open" && (failed > 0 || len(r.Violations) > 0) {
				// The 2-member ring stalls at the seed (README,
				// Findings); the harness still has to report.
				t.Skipf("2-member ring misbehaved, as recorded: %d failed, %v", failed, r.Violations)
			}
			if failed > 0 {
				t.Errorf("%d of %d invocations failed", failed, att)
			}
			for _, v := range r.Violations {
				t.Errorf("violation: %s", v)
			}
			if r.Acked == 0 || r.Final.Count < r.Acked || r.Final.Count > r.Attempted {
				t.Errorf("final count %d outside [acked %d, attempted %d]", r.Final.Count, r.Acked, r.Attempted)
			}
			e := endToEnd(r)
			for _, name := range []string{"setup_s", "inv_per_s", "inv_p99_us"} {
				if e[name] <= 0 {
					t.Errorf("%s = %v, want a positive measurement", name, e[name])
				}
			}
			if w.ChurnNode == "" {
				return
			}
			if len(r.Recoveries) == 0 {
				t.Fatal("churn window without a single recovery")
			}
			if e["recovery_p50_ms"] <= 0 || e["fg_recovery_wait_p50_us"] <= 0 {
				t.Errorf("recovery metrics not measured: %v", e)
			}
		})
	}
}

// A traced run reports exactly the per-layer metrics BENCHMARK.json names,
// an untraced run exactly the end-to-end ones, and the traced run leaves
// its spans behind.
func TestRunsReportWhatBenchmarkJSONNames(t *testing.T) {
	b := readBenchmarkJSON(t)
	dir := t.TempDir()
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	w, _ := findWorkload("active3_serial")

	names := func(m map[string]metric) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	diff := func(kind string, got []string, want []string) {
		t.Helper()
		sort.Strings(want)
		have := map[string]bool{}
		for _, g := range got {
			have[g] = true
		}
		for _, n := range want {
			if !have[n] {
				t.Errorf("%s metric %s is in BENCHMARK.json but was not reported", kind, n)
			}
			delete(have, n)
		}
		for n := range have {
			t.Errorf("%s metric %s was reported but is not in BENCHMARK.json", kind, n)
		}
	}

	res, _ := runWorkload(w, 3, 3, false)
	if res == nil || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("untraced run: %+v", res)
	}
	var want []string
	for _, e := range b.EndToEnd {
		want = append(want, e.Name)
		if res.Metrics[e.Name].Value <= 0 {
			t.Errorf("end-to-end %s = %v: the driver wants metrics that are never 0", e.Name, res.Metrics[e.Name].Value)
		}
	}
	diff("end-to-end", names(res.Metrics), want)

	res, _ = runWorkload(w, 3, 3, true)
	if res == nil || !res.Correct {
		t.Fatalf("traced run: %+v", res)
	}
	want = nil
	for _, p := range b.PerLayer {
		want = append(want, p.Name)
	}
	diff("per-layer", names(res.Metrics), want)
	if share := res.Metrics["span.attributed_share"].Value; share < 0.9 {
		t.Errorf("span.attributed_share = %v, want at least 0.9 of end-to-end time attributed to phases", share)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "out", "trace_active3_serial.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	ids := map[uint64]bool{}
	for _, s := range tf.Spans {
		seen[s.Name]++
		if s.End < s.Start || ids[s.ID] || (s.Parent != 0 && !ids[s.Parent]) {
			t.Fatalf("span %+v: ends before it starts, repeats an id, or precedes its parent", s)
		}
		ids[s.ID] = true
	}
	for _, name := range []string{"setup", "NewSystem", "CreateGroup", "Invoke", "KillReplica", "RecoverReplica", "layers", "cdr.encode_req_ns", "totem.udp3_deliver_p50_us"} {
		if seen[name] == 0 {
			t.Errorf("no span named %q in the trace", name)
		}
	}
	if len(tf.Rows) != len(b.PerLayer) || tf.SelfS["Invoke"] <= 0 {
		t.Errorf("trace file: %d rows, self time of Invoke %v", len(tf.Rows), tf.SelfS["Invoke"])
	}
}
