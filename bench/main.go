// Command bench is the benchmark of Eternal-Go: six workloads on fresh
// in-process clusters, end-to-end metrics from untraced runs, per-layer
// metrics from a traced run, correctness checked in every run. See
// README.md beside this file and BENCHMARK.json at the root of the
// repository.
//
//	bash bench/run.sh --workload active3_serial --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -all
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// defaultSeconds is run_seconds of BENCHMARK.json: how long one run
// measures, split between the repetitions of the workload.
const defaultSeconds = 12

// result is the last line a run prints, the driver's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "seed of the workload's inputs: payloads and kill times")
		seconds = flag.Int("seconds", defaultSeconds, "seconds one run measures, split between its repetitions")
		trace   = flag.Int("trace", 0, "1 runs the traced set: one repetition with spans and counters, and the layers pass")
		all     = flag.Bool("all", false, "run every workload and print every metric")
		cmp     = flag.Bool("compare", false, "compare two row files: -compare a.json b.json")
	)
	flag.Parse()
	switch {
	case *cmp:
		os.Exit(runCompare(flag.Args()))
	case *all:
		ok := true
		var rows []row
		for _, w := range workloads {
			res, rs := runWorkload(w, *seed, *seconds, *trace == 1)
			ok = ok && res != nil && res.Correct
			rows = append(rows, rs...)
		}
		name := "all.json"
		if *trace == 1 {
			name = "all_traced.json"
		}
		if err := writeRows(filepath.Join(outDir(), name), rows); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
		if !ok {
			fmt.Println("FAIL: a run failed or a correctness check did not hold")
			os.Exit(1)
		}
	default:
		w, found := findWorkload(*name)
		if !found {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have:", *name)
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, " %s", w.Name)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(2)
		}
		res, _ := runWorkload(w, *seed, *seconds, *trace == 1)
		if res == nil {
			os.Exit(1)
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func runCompare(files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	a, errA := readRows(files[0])
	b, errB := readRows(files[1])
	m, errM := readManifest()
	if err := errors.Join(errA, errB, errM); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compare(os.Stdout, a, b, m) > 0 {
		return 1
	}
	return 0
}

// runWorkload runs one workload, untraced or traced, prints its rows and
// writes them under bench/out. It returns nil when the cluster could not
// be driven at all.
func runWorkload(w workload, seed int64, seconds int, traced bool) (*result, []row) {
	span := time.Duration(seconds) * time.Second / time.Duration(w.Reps)
	var (
		perRep []values
		reps   []*repResult
		tr     *tracer
		err    error
	)
	if traced {
		tr = &tracer{}
		var v values
		v, reps, err = runTraced(w, seed, span, tr)
		perRep = []values{v}
	} else {
		for i := 0; i < w.Reps && err == nil; i++ {
			var r *repResult
			if r, err = runRep(w, repSeed(seed, i), span, nil); err == nil {
				reps = append(reps, r)
				perRep = append(perRep, endToEnd(r))
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return nil, nil
	}

	res := &result{Metrics: map[string]metric{}}
	var violations []string
	for _, r := range reps {
		att, failed := r.count(r.measured())
		res.Attempted += att
		res.Failed += failed
		violations = append(violations, r.Violations...)
	}
	res.Correct = len(violations) == 0
	rows := rowsOf(w.Name, seed, perRep...)
	for _, r := range rows {
		res.Metrics[r.Metric] = metric{Value: r.Value, Unit: r.Unit}
		fmt.Printf("%-16s %-38s %14.4f %-10s n=%d min=%.4f max=%.4f\n", r.Workload, r.Metric, r.Value, r.Unit, r.N, r.Min, r.Max)
	}
	fmt.Printf("%-16s attempted=%d failed=%d violations=%d\n", w.Name, res.Attempted, res.Failed, len(violations))
	for _, v := range violations {
		fmt.Printf("%-16s VIOLATION: %s\n", w.Name, v)
	}

	if traced {
		err = writeTrace(outDir(), traceFile{Workload: w.Name, Seed: seed, SHA: sha(), Rows: rows, SelfS: tr.selfTimes(), Spans: tr.spans})
	} else {
		err = writeRows(filepath.Join(outDir(), w.Name+".json"), rows)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, nil
	}
	return res, rows
}

// runTraced is the traced set of one workload: an untraced repetition (the
// baseline for the overhead of tracing), the traced repetition, the layers
// pass, and the single-node baseline. It returns the per-layer values and
// the repetitions it ran.
func runTraced(w workload, seed int64, span time.Duration, tr *tracer) (values, []*repResult, error) {
	base, err := runRep(w, repSeed(seed, 0), span, nil)
	if err != nil {
		return nil, nil, err
	}
	r, err := runRep(w, repSeed(seed, 0), span, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("traced: %w", err)
	}
	v := values{}
	for _, part := range []values{clientDiagnostics(r), counterMetrics(r), spanMetrics(r), runLayers(tr)} {
		for k, x := range part {
			v[k] = x
		}
	}
	single, err := runRep(stack1, repSeed(seed, 0), stack1Span, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("single-node baseline: %w", err)
	}
	e, c := endToEnd(single), counterMetrics(single)
	v["stack1.inv_p50_us"], v["stack1.inv_per_s"] = single.steadyQuantile(0.5), e["inv_per_s"]
	v["stack1.allocs_per_inv"], v["stack1.cpu_ms_per_kinv"] = c["process.allocs_per_inv"], c["process.cpu_ms_per_kinv"]

	untraced, withTrace := endToEnd(base)["inv_per_s"], endToEnd(r)["inv_per_s"]
	v["bench.trace_overhead_pct"] = 100 * ratio(untraced-withTrace, untraced)
	v["bench.layer_sum_us"] = layerSum(v)
	v["bench.layer_sum_share"] = ratio(v["bench.layer_sum_us"], v["stack1.inv_p50_us"])
	return v, []*repResult{base, r, single}, nil
}

// stack1Span is the window of the single-node baseline that every traced
// run measures beside its own workload.
const stack1Span = 1500 * time.Millisecond

// repSeed derives the seed of repetition i from the run's seed.
func repSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// blockingPath lists the outside-timed layer calls one serial invocation
// of stack1_serial waits for, with how many times it makes each: the
// request and the reply are each encoded and parsed by the ORB and again
// by the mechanisms, cross two pipes, get their id rewritten, travel in
// an envelope through a one-member ring and pass the duplicate filter.
var blockingPath = []struct {
	metric string
	times  float64
	scale  float64 // to microseconds
}{
	{"giop.request_encode_ns", 2, 1e-3}, {"giop.request_parse_ns", 2, 1e-3},
	{"giop.reply_encode_ns", 2, 1e-3}, {"giop.reply_parse_ns", 2, 1e-3},
	{"interceptor.pipe_msg_ns", 4, 1e-3}, {"interceptor.rewrite_id_ns", 2, 1e-3},
	{"replication.envelope_encode_ns", 2, 1e-3}, {"replication.envelope_decode_ns", 2, 1e-3},
	{"replication.dupfilter_ns", 2, 1e-3}, {"obs.span_stamp_ns", 11, 1e-3},
	{"obs.histogram_observe_ns", 3, 1e-3}, {"totem.ring1_deliver_p50_us", 2, 1},
}

// layerSum adds up the blocking path from the layers pass.
func layerSum(v values) float64 {
	var sum float64
	for _, step := range blockingPath {
		if x := v[step.metric]; x > 0 {
			sum += x * step.times * step.scale
		}
	}
	return sum
}
