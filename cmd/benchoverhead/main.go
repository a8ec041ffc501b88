// Command benchoverhead regenerates the paper's §6 fault-free overhead
// measurement: the response time of two-way invocations through the full
// Eternal stack (interception, totally-ordered multicast, duplicate
// suppression) against the same unmodified mini-ORB speaking plain IIOP
// over TCP loopback with no replication.
//
// The paper reports overheads "within the range of 10-15% of the response
// time" on its 1997-era testbed, where a base RPC cost milliseconds. On an
// in-process simulation the base RPC costs tens of microseconds, so the
// single-replica configuration (interception + mechanisms, no token wait)
// is the comparable number; the multi-replica rows additionally show the
// token-rotation cost that dominates multi-node active replication.
//
//	go run ./cmd/benchoverhead [-n 2000] [-json BENCH_overhead.json]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eternal"
	"eternal/internal/cdr"
	"eternal/internal/orb"
	"eternal/internal/scenario"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

type nullServant struct{}

func (nullServant) Invoke(op string, args []byte, order eternal.ByteOrder) ([]byte, error) {
	return nil, nil
}
func (nullServant) GetState() (eternal.Any, error) { return eternal.AnyFromBytes(nil), nil }
func (nullServant) SetState(eternal.Any) error     { return nil }

// latencyQuantiles holds a histogram's client-visible percentiles in
// microseconds.
type latencyQuantiles struct {
	Count uint64  `json:"count"`
	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	P99Us float64 `json:"p99_us"`
}

// configRow is one configuration's result in BENCH_overhead.json.
type configRow struct {
	Configuration string            `json:"configuration"`
	Replicas      int               `json:"replicas"`
	UsPerInv      float64           `json:"us_per_inv"`
	OverheadPct   float64           `json:"overhead_pct"`
	Invocation    *latencyQuantiles `json:"invocation_latency,omitempty"`
	McastDelivery *latencyQuantiles `json:"mcast_delivery_latency,omitempty"`
}

// sustainedRow is one sustained-load configuration's result.
type sustainedRow struct {
	Clients      int     `json:"clients"`
	Packing      bool    `json:"packing"`
	InvPerSec    float64 `json:"inv_per_sec"`
	FramesPerInv float64 `json:"frames_per_inv"`
	// DataFrames and PackedChunks aggregate the totem counters across all
	// nodes: initial data-frame transmissions, and chunks that shared a
	// packed frame with at least one other chunk.
	DataFrames   uint64 `json:"data_frames"`
	PackedChunks uint64 `json:"packed_chunks"`
}

func main() {
	n := flag.Int("n", 2000, "invocations per configuration")
	jsonPath := flag.String("json", "", "also write the results as JSON to this file (e.g. BENCH_overhead.json)")
	recoveryJSON := flag.String("recovery-json", "", "run the E8 recovery sweep (foreground latency during state transfer: one chunk vs 32 KiB chunks vs paced 8 KiB chunks) and write it to this file (e.g. BENCH_5.json)")
	spansJSON := flag.String("spans-json", "", "run the span phase-attribution bench (where the microseconds of a 2-way active invocation go) and write it to this file (e.g. BENCH_6.json)")
	maxSpanOverhead := flag.Float64("max-span-overhead-pct", 5,
		"fail the -spans-json run if span recording costs more than this percent of sustained inv/s")
	auditJSON := flag.String("audit-json", "", "run the consistency-audit bench (digest matching correctness plus the audit layer's sustained-throughput overhead) and write it to this file (e.g. BENCH_7.json)")
	maxAuditOverhead := flag.Float64("max-audit-overhead-pct", 2,
		"fail the -audit-json run if the audit costs more than this percent of sustained inv/s")
	cliffJSON := flag.String("cliff-json", "", "run the 2-way replication-cliff bench (1-way and 2-way active groups against the unreplicated baseline) and write it to this file (e.g. BENCH_8.json)")
	maxCliffRatio := flag.Float64("max-cliff-ratio", 5,
		"fail the -cliff-json run if a 2-way response time exceeds this multiple of the unreplicated TCP baseline")
	chaosJSON := flag.String("chaos-json", "", "run the E12 chaos scenario suite (every registered scenario, quick and soak tiers) and write per-scenario pass/latency/recovery-epoch results to this file (e.g. BENCH_9.json); exits non-zero after writing if any scenario failed")
	flag.Parse()

	if *recoveryJSON != "" {
		runRecoverySweep(*recoveryJSON)
		return
	}
	if *chaosJSON != "" {
		runChaosBench(*chaosJSON)
		return
	}
	if *cliffJSON != "" {
		runCliffBench(*cliffJSON, *n, *maxCliffRatio)
		return
	}
	if *spansJSON != "" {
		runSpanBench(*spansJSON, *n, *maxSpanOverhead)
		return
	}
	if *auditJSON != "" {
		runAuditBench(*auditJSON, *n, *maxAuditOverhead)
		return
	}

	base := benchTCP(*n)
	fmt.Println("§6 fault-free overhead — response time of a two-way invocation")
	fmt.Printf("%-28s %12s %12s\n", "configuration", "µs/inv", "overhead")
	fmt.Printf("%-28s %12.1f %12s\n", "unreplicated IIOP over TCP", base, "—")
	rows := []configRow{{Configuration: "unreplicated IIOP over TCP", UsPerInv: base}}
	for _, replicas := range []int{1, 2, 3} {
		row := benchEternal(*n, replicas)
		row.OverheadPct = (row.UsPerInv - base) / base * 100
		rows = append(rows, row)
		fmt.Printf("%-28s %12.1f %11.0f%%\n", row.Configuration, row.UsPerInv, row.OverheadPct)
	}

	fmt.Println()
	fmt.Println("sustained load — aggregate invocation rate, 3-way active group")
	fmt.Printf("%-24s %12s %12s %14s\n", "configuration", "inv/s", "frames/inv", "packed chunks")
	var sustained []sustainedRow
	for _, packing := range []bool{true, false} {
		for _, clients := range []int{1, 4, 16} {
			row := benchSustained(*n, clients, packing)
			sustained = append(sustained, row)
			fmt.Printf("packing=%-5v clients=%-3d %12.0f %12.2f %14d\n",
				row.Packing, row.Clients, row.InvPerSec, row.FramesPerInv, row.PackedChunks)
		}
	}

	if *jsonPath != "" {
		writeJSON(*jsonPath, map[string]any{
			"benchmark":      "sec6_fault_free_overhead",
			"invocations":    *n,
			"generated":      time.Now().UTC().Format(time.RFC3339),
			"baseline_us":    base,
			"configurations": rows,
			"sustained":      sustained,
		})
	}
}

// runChaosBench is the -chaos-json mode: it executes every registered
// chaos scenario (internal/scenario) — quick and soak tiers alike —
// and records per-scenario pass/fail, write-latency quantiles and
// recovery-epoch counts as BENCH_9.json. Failure seeds are embedded in
// the failure strings, so the artifact alone suffices to replay a bad
// run. The JSON is written before the process exits non-zero, so CI
// can upload it from a failed job.
func runChaosBench(path string) {
	fmt.Println("§E12 chaos scenario suite — convergence oracles under scripted faults")
	fmt.Printf("%-20s %5s %6s %9s %8s %9s %9s %7s %8s\n",
		"scenario", "nodes", "pass", "acked", "retries", "p50 ms", "p95 ms", "epochs", "secs")
	var rows []*scenario.Result
	failed := 0
	for _, sc := range scenario.All() {
		res, err := scenario.Run(sc, scenario.Config{})
		if err != nil {
			log.Fatalf("chaos scenario %s (seed %d) could not run: %v", sc.Name, sc.Seed, err)
		}
		rows = append(rows, res)
		fmt.Printf("%-20s %5d %6v %9d %8d %9.2f %9.2f %7d %8.1f\n",
			res.Scenario, res.Nodes, res.Pass, res.WritesAcked, res.WriteRetries,
			res.WriteP50Ms, res.WriteP95Ms, res.MaxRecoveryEpochs, res.ElapsedMs/1000)
		if !res.Pass {
			failed++
			for _, f := range res.Failures {
				fmt.Printf("    FAIL %s\n", f)
			}
		}
	}
	writeJSON(path, map[string]any{
		"benchmark": "e12_chaos_scenarios",
		"generated": time.Now().UTC().Format(time.RFC3339),
		"scenarios": rows,
	})
	if failed > 0 {
		log.Fatalf("%d of %d chaos scenarios failed; replay seeds are embedded in the failure strings in %s",
			failed, len(rows), path)
	}
}

func writeJSON(path string, v any) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}

// quantilesOf extracts a histogram's percentiles from a node registry,
// converted to microseconds.
func quantilesOf(r *eternal.MetricsRegistry, name string) *latencyQuantiles {
	h := r.FindHistogram(name)
	if h == nil {
		return nil
	}
	s := h.Summary()
	if s.Count == 0 {
		return nil
	}
	return &latencyQuantiles{
		Count: s.Count,
		P50Us: s.P50 * 1e6,
		P95Us: s.P95 * 1e6,
		P99Us: s.P99 * 1e6,
	}
}

func benchTCP(n int) float64 {
	srv := orb.NewServer(orb.ServerOptions{})
	srv.RootPOA().Activate("x", orb.ServantFunc(func(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
		return nil, nil
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	addr := l.Addr().(*net.TCPAddr)
	o := orb.NewORB(orb.Options{RequestTimeout: 30 * time.Second})
	defer o.Close()
	obj, err := o.Object(srv.RootPOA().IOR("IDL:X:1.0", "127.0.0.1", uint16(addr.Port), "x"))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 50; i++ { // warm up
		obj.Invoke("ping", nil)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := obj.Invoke("ping", nil); err != nil {
			log.Fatal(err)
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(n)
}

// scrapeCounter reads one counter (including computed CounterFuncs) from a
// node registry's Prometheus exposition.
func scrapeCounter(r *eternal.MetricsRegistry, name string) float64 {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// benchSustained drives n total invocations from `clients` concurrent
// clients against a 3-way active group and reports the aggregate rate, the
// simulated-medium frames per invocation, and the totem packing counters
// summed over all nodes.
func benchSustained(n, clients int, packing bool) sustainedRow {
	nodes := []string{"n1", "n2", "n3"}
	tot := totem.Config{
		TokenLossTimeout: 200 * time.Millisecond,
		JoinInterval:     10 * time.Millisecond,
		StableFor:        20 * time.Millisecond,
		Tick:             time.Millisecond,
	}
	if !packing {
		tot.Packing = totem.PackingOff
	}
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: nodes,
		Network: simnet.Config{
			BandwidthBps: 100_000_000,
			Latency:      50 * time.Microsecond,
		},
		Totem:          tot,
		ManagerTick:    5 * time.Millisecond,
		DefaultTimeout: 60 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()
	sys.RegisterFactory("Null", func(oid string) eternal.Replica { return nullServant{} })
	if err := sys.CreateGroup(eternal.GroupSpec{
		Name: "null", TypeName: "Null",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: len(nodes), MinReplicas: 1},
		Nodes: nodes,
	}); err != nil {
		log.Fatal(err)
	}
	objs := make([]*eternal.ObjectRef, clients)
	for i := range objs {
		cl, err := sys.Client(nodes[i%len(nodes)], fmt.Sprintf("driver%d", i))
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		if objs[i], err = cl.Resolve("null"); err != nil {
			log.Fatal(err)
		}
		if _, err := objs[i].Invoke("ping", nil); err != nil { // warm up
			log.Fatal(err)
		}
	}
	preFrames := sys.Network().Stats().FramesSent
	preData, prePacked := totemCounters(sys, nodes)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, obj := range objs {
		wg.Add(1)
		go func(obj *eternal.ObjectRef) {
			defer wg.Done()
			for next.Add(1) <= int64(n) {
				if _, err := obj.Invoke("ping", nil); err != nil {
					log.Fatal(err)
				}
			}
		}(obj)
	}
	wg.Wait()
	elapsed := time.Since(start)
	postFrames := sys.Network().Stats().FramesSent
	postData, postPacked := totemCounters(sys, nodes)
	return sustainedRow{
		Clients:      clients,
		Packing:      packing,
		InvPerSec:    float64(n) / elapsed.Seconds(),
		FramesPerInv: float64(postFrames-preFrames) / float64(n),
		DataFrames:   uint64(postData - preData),
		PackedChunks: uint64(postPacked - prePacked),
	}
}

// totemCounters sums the data-frame and packed-chunk counters over nodes.
func totemCounters(sys *eternal.System, nodes []string) (dataFrames, packed float64) {
	for _, nd := range nodes {
		reg := sys.Node(nd).Metrics()
		dataFrames += scrapeCounter(reg, "eternal_totem_data_frames_total")
		packed += scrapeCounter(reg, "eternal_totem_packed_messages_total")
	}
	return dataFrames, packed
}

// benchEternal times n invocations through a replicas-way active group
// and reads the client node's latency histograms afterwards.
func benchEternal(n, replicas int) configRow {
	nodes := []string{"n1", "n2", "n3"}[:replicas]
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: nodes,
		Network: simnet.Config{
			BandwidthBps: 100_000_000,
			Latency:      50 * time.Microsecond,
		},
		Totem: totem.Config{
			TokenLossTimeout: 200 * time.Millisecond,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        20 * time.Millisecond,
			Tick:             time.Millisecond,
		},
		ManagerTick:    5 * time.Millisecond,
		DefaultTimeout: 60 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()
	sys.RegisterFactory("Null", func(oid string) eternal.Replica { return nullServant{} })
	if err := sys.CreateGroup(eternal.GroupSpec{
		Name: "null", TypeName: "Null",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: replicas, MinReplicas: 1},
		Nodes: nodes,
	}); err != nil {
		log.Fatal(err)
	}
	cl, err := sys.Client(nodes[0], "driver")
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	obj, err := cl.Resolve("null")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 50; i++ { // warm up
		obj.Invoke("ping", nil)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := obj.Invoke("ping", nil); err != nil {
			log.Fatal(err)
		}
	}
	us := float64(time.Since(start).Microseconds()) / float64(n)

	// The client rode on nodes[0], so that node's registry holds the
	// end-to-end invocation histogram and its totem layer's multicast
	// delivery latency.
	reg := sys.Node(nodes[0]).Metrics()
	return configRow{
		Configuration: fmt.Sprintf("Eternal, %d-way active", replicas),
		Replicas:      replicas,
		UsPerInv:      us,
		Invocation:    quantilesOf(reg, "eternal_invocation_seconds"),
		McastDelivery: quantilesOf(reg, "eternal_totem_mcast_delivery_seconds"),
	}
}

// cliffRow is one configuration of the 2-way replication-cliff bench
// (BENCH_8.json): response time relative to the unreplicated baseline,
// plus the token-wait share of the end-to-end p50 from merged spans and
// the totem scheduling counters that explain it.
type cliffRow struct {
	Configuration   string            `json:"configuration"`
	Replicas        int               `json:"replicas"`
	ClientNode      string            `json:"client_node,omitempty"`
	UsPerInv        float64           `json:"us_per_inv"`
	RatioToBaseline float64           `json:"ratio_to_baseline"`
	TokenWaitPct    float64           `json:"token_wait_pct"`
	Invocation      *latencyQuantiles `json:"invocation_latency,omitempty"`
	HurriesSent     uint64            `json:"hurries_sent"`
	PacedHops       uint64            `json:"paced_hops"`
}

// benchCliff times n invocations through a replicas-way active group, the
// client attached to nodes[clientIdx], with span recording on so the
// token-wait share of the end-to-end p50 can be attributed afterwards.
func benchCliff(n, replicas, clientIdx int) cliffRow {
	nodes := []string{"n1", "n2", "n3"}[:replicas]
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: nodes,
		Network: simnet.Config{
			BandwidthBps: 100_000_000,
			Latency:      50 * time.Microsecond,
		},
		Totem: totem.Config{
			TokenLossTimeout: 200 * time.Millisecond,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        20 * time.Millisecond,
			Tick:             time.Millisecond,
		},
		ManagerTick:    5 * time.Millisecond,
		SpanCapacity:   n + 1024,
		DefaultTimeout: 60 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()
	sys.RegisterFactory("Null", func(oid string) eternal.Replica { return nullServant{} })
	if err := sys.CreateGroup(eternal.GroupSpec{
		Name: "null", TypeName: "Null",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: replicas, MinReplicas: 1},
		Nodes: nodes,
	}); err != nil {
		log.Fatal(err)
	}
	cl, err := sys.Client(nodes[clientIdx], "driver")
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	obj, err := cl.Resolve("null")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 50; i++ { // warm up
		obj.Invoke("ping", nil)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := obj.Invoke("ping", nil); err != nil {
			log.Fatal(err)
		}
	}
	us := float64(time.Since(start).Microseconds()) / float64(n)

	// Server-side spans journal on the idle sweep; let the ring go quiet
	// before merging every node's feed.
	time.Sleep(300 * time.Millisecond)
	spans := make(map[string][]eternal.Span)
	for _, nd := range nodes {
		spans[nd] = sys.Node(nd).Spans(0, 0)
	}
	att := eternal.AttributePhases(eternal.MergeSpans(spans))
	tokenWaitP50 := 0.0
	for _, st := range att.Phases {
		if st.Phase == "token-wait" || st.Phase == "reply-token-wait" {
			tokenWaitP50 += st.P50Us
		}
	}
	tokenWaitPct := 0.0
	if att.EndToEnd.P50Us > 0 {
		tokenWaitPct = tokenWaitP50 / att.EndToEnd.P50Us * 100
	}

	var hurries, paced float64
	for _, nd := range nodes {
		reg := sys.Node(nd).Metrics()
		hurries += scrapeCounter(reg, "eternal_totem_hurries_sent_total")
		paced += scrapeCounter(reg, "eternal_totem_paced_hops_total")
	}
	name := fmt.Sprintf("Eternal, %d-way active", replicas)
	if replicas > 1 {
		if clientIdx == 0 {
			name += ", client at the representative"
		} else {
			name += ", client at the other member"
		}
	}
	return cliffRow{
		Configuration: name,
		Replicas:      replicas,
		ClientNode:    nodes[clientIdx],
		UsPerInv:      us,
		TokenWaitPct:  tokenWaitPct,
		Invocation:    quantilesOf(sys.Node(nodes[clientIdx]).Metrics(), "eternal_invocation_seconds"),
		HurriesSent:   uint64(hurries),
		PacedHops:     uint64(paced),
	}
}

// runCliffBench is the -cliff-json mode: the 2-way active replication
// cliff (BENCH_3 measured 1-way at ~21 µs/inv but 2-way at ~344 µs/inv,
// ~59% of it token-wait) against the token scheduler — hurry nudges, idle
// pacing and the resting token. Writes BENCH_8.json and fails (non-zero
// exit) when either 2-way configuration exceeds maxRatio times the
// unreplicated TCP baseline — the CI regression gate for the cliff.
func runCliffBench(path string, n int, maxRatio float64) {
	base := benchTCP(n)
	fmt.Println("E11 — the 2-way active replication cliff")
	fmt.Printf("%-58s %10s %8s %11s\n", "configuration", "µs/inv", "×base", "token-wait")
	fmt.Printf("%-58s %10.1f %8s %11s\n", "unreplicated IIOP over TCP", base, "1.0", "—")

	rows := []cliffRow{{Configuration: "unreplicated IIOP over TCP", UsPerInv: base, RatioToBaseline: 1}}
	// Both 2-way rows are gated: the client next to the representative is
	// the direct successor of the BENCH_3 measurement that exposed the
	// cliff, and the token rests wherever the one client's node is.
	var worst float64
	for _, c := range []struct{ replicas, clientIdx int }{{1, 0}, {2, 0}, {2, 1}} {
		row := benchCliff(n, c.replicas, c.clientIdx)
		row.RatioToBaseline = row.UsPerInv / base
		rows = append(rows, row)
		fmt.Printf("%-58s %10.1f %8.1f %10.1f%%\n",
			row.Configuration, row.UsPerInv, row.RatioToBaseline, row.TokenWaitPct)
		if c.replicas == 2 {
			worst = max(worst, row.RatioToBaseline)
		}
	}

	writeJSON(path, map[string]any{
		"benchmark":      "e11_two_way_replication_cliff",
		"generated":      time.Now().UTC().Format(time.RFC3339),
		"invocations":    n,
		"baseline_us":    base,
		"max_ratio":      maxRatio,
		"configurations": rows,
	})
	if worst > maxRatio {
		log.Fatalf("cliff bench: a 2-way row runs at %.1fx the unreplicated baseline (budget %.1fx)",
			worst, maxRatio)
	}
}

// rotationSummary condenses one node's token-rotation profile for
// BENCH_6.json.
type rotationSummary struct {
	Node         string  `json:"node"`
	Samples      int     `json:"samples"`
	IntervalP50  float64 `json:"interval_p50_us"`
	HoldP50      float64 `json:"hold_p50_us"`
	RetransTotal float64 `json:"retrans_total_us"`
	SendTotal    float64 `json:"send_total_us"`
	ChunksSent   int     `json:"chunks_sent"`
}

// newSpanSystem starts a 2-node domain for the span bench with the given
// span-journal capacity (negative disables recording — the baseline).
func newSpanSystem(spanCapacity int) (*eternal.System, []string) {
	nodes := []string{"n1", "n2"}
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: nodes,
		Network: simnet.Config{
			BandwidthBps: 100_000_000,
			Latency:      50 * time.Microsecond,
		},
		Totem: totem.Config{
			TokenLossTimeout: 200 * time.Millisecond,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        20 * time.Millisecond,
			Tick:             time.Millisecond,
		},
		ManagerTick:    5 * time.Millisecond,
		SpanCapacity:   spanCapacity,
		DefaultTimeout: 60 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys.RegisterFactory("Null", func(oid string) eternal.Replica { return nullServant{} })
	if err := sys.CreateGroup(eternal.GroupSpec{
		Name: "null", TypeName: "Null",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1},
		Nodes: nodes,
	}); err != nil {
		log.Fatal(err)
	}
	return sys, nodes
}

// spanRate drives n invocations from `clients` concurrent clients against
// a 2-way active group and reports the aggregate rate.
func spanRate(n, clients, spanCapacity int) float64 {
	sys, nodes := newSpanSystem(spanCapacity)
	defer sys.Shutdown()
	objs := make([]*eternal.ObjectRef, clients)
	for i := range objs {
		cl, err := sys.Client(nodes[i%len(nodes)], fmt.Sprintf("driver%d", i))
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		if objs[i], err = cl.Resolve("null"); err != nil {
			log.Fatal(err)
		}
		if _, err := objs[i].Invoke("ping", nil); err != nil { // warm up
			log.Fatal(err)
		}
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, obj := range objs {
		wg.Add(1)
		go func(obj *eternal.ObjectRef) {
			defer wg.Done()
			for next.Add(1) <= int64(n) {
				if _, err := obj.Invoke("ping", nil); err != nil {
					log.Fatal(err)
				}
			}
		}(obj)
	}
	wg.Wait()
	return float64(n) / time.Since(start).Seconds()
}

// bestRate takes the best of `runs` sustained-rate measurements — the
// minimum-interference estimate, which makes the on/off comparison far
// less sensitive to scheduler noise than single runs.
func bestRate(runs, n, clients, spanCapacity int) float64 {
	best := 0.0
	for i := 0; i < runs; i++ {
		if r := spanRate(n, clients, spanCapacity); r > best {
			best = r
		}
	}
	return best
}

// runSpanBench is the -spans-json mode: phase attribution of a 2-way
// active invocation from the merged causal spans, the span layer's
// sustained-throughput overhead against a spans-disabled baseline, and
// the token-rotation profile. Fails (non-zero exit) when attribution
// covers less than 90% of the end-to-end p50 or the overhead exceeds
// maxOverheadPct — the CI gate on the span hot path.
func runSpanBench(path string, n int, maxOverheadPct float64) {
	// Phase attribution: n traced invocations, then every node's span
	// journal merged by trace id.
	sys, nodes := newSpanSystem(n + 1024)
	cl, err := sys.Client(nodes[0], "driver")
	if err != nil {
		log.Fatal(err)
	}
	obj, err := cl.Resolve("null")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 50; i++ { // warm up
		obj.Invoke("ping", nil)
	}
	for i := 0; i < n; i++ {
		if _, err := obj.Invoke("ping", nil); err != nil {
			log.Fatal(err)
		}
	}
	// The server-side spans on n2 never see a local reply delivery; they
	// journal on the idle sweep Spans() performs. Let them go idle first.
	time.Sleep(300 * time.Millisecond)
	spans := make(map[string][]eternal.Span)
	var rotations []rotationSummary
	for _, nd := range nodes {
		node := sys.Node(nd)
		spans[nd] = node.Spans(0, 0)
		rotations = append(rotations, summarizeRotations(nd, node.TokenRotations(0)))
	}
	traces := eternal.MergeSpans(spans)
	att := eternal.AttributePhases(traces)
	cl.Close()
	sys.Shutdown()

	fmt.Printf("span phase attribution — 2-way active, %d complete trace(s) of %d merged\n", att.Traces, len(traces))
	fmt.Printf("  %-18s %6s %10s %10s %10s\n", "phase", "count", "p50(µs)", "p95(µs)", "p99(µs)")
	for _, st := range att.Phases {
		fmt.Printf("  %-18s %6d %10.1f %10.1f %10.1f\n", st.Phase, st.Count, st.P50Us, st.P95Us, st.P99Us)
	}
	fmt.Printf("  %-18s %6d %10.1f %10.1f %10.1f\n", "end-to-end",
		att.EndToEnd.Count, att.EndToEnd.P50Us, att.EndToEnd.P95Us, att.EndToEnd.P99Us)
	fmt.Printf("phases account for %.1f%% of end-to-end time\n\n", att.AttributedPct)

	// Overhead: sustained rate with spans recording vs. disabled
	// (SpanCapacity < 0 — every mark is a nil-receiver no-op).
	const rateRuns, rateClients = 3, 4
	rateOn := bestRate(rateRuns, n, rateClients, n+1024)
	rateOff := bestRate(rateRuns, n, rateClients, -1)
	overheadPct := (rateOff - rateOn) / rateOff * 100
	fmt.Printf("span overhead — sustained 2-way active, %d clients, best of %d runs\n", rateClients, rateRuns)
	fmt.Printf("  spans disabled %10.0f inv/s\n  spans enabled  %10.0f inv/s\n  overhead       %9.1f%% (budget %.1f%%)\n",
		rateOff, rateOn, overheadPct, maxOverheadPct)

	writeJSON(path, map[string]any{
		"benchmark":   "e6_span_phase_attribution",
		"generated":   time.Now().UTC().Format(time.RFC3339),
		"invocations": n,
		"attribution": att,
		"overhead": map[string]any{
			"clients":              rateClients,
			"runs":                 rateRuns,
			"inv_per_sec_spans_on": rateOn, "inv_per_sec_spans_off": rateOff,
			"overhead_pct":     overheadPct,
			"max_overhead_pct": maxOverheadPct,
		},
		"rotation": rotations,
	})
	if att.Traces == 0 {
		log.Fatal("span bench: no complete traces merged")
	}
	if att.AttributedPct < 90 {
		log.Fatalf("span bench: phases attribute only %.1f%% of the end-to-end p50 (want >= 90%%)", att.AttributedPct)
	}
	if overheadPct > maxOverheadPct {
		log.Fatalf("span bench: span recording costs %.1f%% of sustained inv/s (budget %.1f%%)", overheadPct, maxOverheadPct)
	}
}

// newAuditSystem starts a 2-node domain for the audit bench with the
// given audit-mark interval (negative disables the audit — the baseline).
func newAuditSystem(auditInterval time.Duration) (*eternal.System, []string) {
	nodes := []string{"n1", "n2"}
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: nodes,
		Network: simnet.Config{
			BandwidthBps: 100_000_000,
			Latency:      50 * time.Microsecond,
		},
		Totem: totem.Config{
			TokenLossTimeout: 200 * time.Millisecond,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        20 * time.Millisecond,
			Tick:             time.Millisecond,
		},
		ManagerTick:    5 * time.Millisecond,
		AuditInterval:  auditInterval,
		DefaultTimeout: 60 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys.RegisterFactory("Null", func(oid string) eternal.Replica { return nullServant{} })
	if err := sys.CreateGroup(eternal.GroupSpec{
		Name: "null", TypeName: "Null",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1},
		Nodes: nodes,
	}); err != nil {
		log.Fatal(err)
	}
	return sys, nodes
}

// auditRate drives n invocations from `clients` concurrent clients against
// a 2-way active group auditing at the given interval and reports the
// aggregate rate.
func auditRate(n, clients int, auditInterval time.Duration) float64 {
	sys, nodes := newAuditSystem(auditInterval)
	defer sys.Shutdown()
	objs := make([]*eternal.ObjectRef, clients)
	for i := range objs {
		cl, err := sys.Client(nodes[i%len(nodes)], fmt.Sprintf("driver%d", i))
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		if objs[i], err = cl.Resolve("null"); err != nil {
			log.Fatal(err)
		}
		if _, err := objs[i].Invoke("ping", nil); err != nil { // warm up
			log.Fatal(err)
		}
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, obj := range objs {
		wg.Add(1)
		go func(obj *eternal.ObjectRef) {
			defer wg.Done()
			for next.Add(1) <= int64(n) {
				if _, err := obj.Invoke("ping", nil); err != nil {
					log.Fatal(err)
				}
			}
		}(obj)
	}
	wg.Wait()
	return float64(n) / time.Since(start).Seconds()
}

// pairedAuditRates interleaves audit-on and audit-off runs and returns the
// best of each. Alternating the sides run-by-run (rather than measuring one
// side to completion first) keeps slow environmental drift — CPU frequency,
// other tenants — from landing on only one side of the comparison; a 2%
// overhead budget is below the run-to-run noise of short uncorrelated runs.
func pairedAuditRates(runs, n, clients int, auditInterval time.Duration) (on, off float64) {
	for i := 0; i < runs; i++ {
		if r := auditRate(n, clients, auditInterval); r > on {
			on = r
		}
		if r := auditRate(n, clients, -1); r > off {
			off = r
		}
	}
	return on, off
}

// runAuditBench is the -audit-json mode: first a correctness probe — a
// 2-way active group audited aggressively under load must produce
// matching digests on every epoch with zero alarms — then the audit
// layer's sustained-throughput overhead against an audit-disabled
// baseline. Fails (non-zero exit) on any divergence, any alarm, or
// overhead beyond maxOverheadPct — the CI gate on the audit hot path.
func runAuditBench(path string, n int, maxOverheadPct float64) {
	// Correctness probe: drive invocations while marks fire every 25ms,
	// then check both nodes' verdicts and cross-check their feeds.
	const probeInterval = 25 * time.Millisecond
	sys, nodes := newAuditSystem(probeInterval)
	cl, err := sys.Client(nodes[0], "driver")
	if err != nil {
		log.Fatal(err)
	}
	obj, err := cl.Resolve("null")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := obj.Invoke("ping", nil); err != nil {
			log.Fatal(err)
		}
	}
	// Let a few more epochs complete after the load stops.
	time.Sleep(8 * probeInterval)
	feeds := make(map[string][]eternal.AuditObservation)
	var (
		observations uint64
		alarms       uint64
		diverged     bool
	)
	for _, nd := range nodes {
		node := sys.Node(nd)
		feeds[nd] = node.Audits(0, 0)
		s, ok := node.AuditSummary()
		if !ok {
			log.Fatalf("audit bench: %s has no audit collector", nd)
		}
		observations += s.Observations
		alarms += s.Divergences + s.Lags + s.Stalls
		diverged = diverged || s.Diverged
	}
	rows := eternal.MergeAudits(feeds)
	epochs := len(rows)
	for _, row := range rows {
		if row.Diverged || row.Conflicted {
			diverged = true
		}
	}
	cl.Close()
	sys.Shutdown()
	fmt.Printf("audit correctness probe — 2-way active, marks every %s under load\n", probeInterval)
	fmt.Printf("  epochs=%d observations=%d alarms=%d diverged=%t\n\n", epochs, observations, alarms, diverged)

	// Overhead: sustained rate with aggressive auditing vs. disabled
	// (AuditInterval < 0 — no collector, no marks, no captures). Longer
	// runs than the probe: the budget is tighter than short-run noise.
	const rateRuns, rateClients = 4, 4
	const rateInterval = 50 * time.Millisecond
	rateN := max(4*n, 8000)
	rateOn, rateOff := pairedAuditRates(rateRuns, rateN, rateClients, rateInterval)
	overheadPct := (rateOff - rateOn) / rateOff * 100
	fmt.Printf("audit overhead — sustained 2-way active, %d clients × %d invocations, marks every %s, best of %d interleaved runs\n",
		rateClients, rateN, rateInterval, rateRuns)
	fmt.Printf("  audit disabled %10.0f inv/s\n  audit enabled  %10.0f inv/s\n  overhead       %9.1f%% (budget %.1f%%)\n",
		rateOff, rateOn, overheadPct, maxOverheadPct)

	writeJSON(path, map[string]any{
		"benchmark": "e10_consistency_audit",
		"generated": time.Now().UTC().Format(time.RFC3339),
		"probe": map[string]any{
			"interval_ms":  float64(probeInterval.Milliseconds()),
			"invocations":  n,
			"epochs":       epochs,
			"observations": observations,
			"alarms":       alarms,
			"diverged":     diverged,
		},
		"overhead": map[string]any{
			"clients":              rateClients,
			"runs":                 rateRuns,
			"invocations":          rateN,
			"mark_interval_ms":     float64(rateInterval.Milliseconds()),
			"inv_per_sec_audit_on": rateOn, "inv_per_sec_audit_off": rateOff,
			"overhead_pct":     overheadPct,
			"max_overhead_pct": maxOverheadPct,
		},
	})
	if epochs == 0 || observations == 0 {
		log.Fatal("audit bench: no audit epochs observed during the probe")
	}
	if diverged {
		log.Fatal("audit bench: digests diverged on an identical-state workload")
	}
	if alarms > 0 {
		log.Fatalf("audit bench: %d false alarm(s) on a healthy cluster", alarms)
	}
	if overheadPct > maxOverheadPct {
		log.Fatalf("audit bench: auditing costs %.1f%% of sustained inv/s (budget %.1f%%)", overheadPct, maxOverheadPct)
	}
}

// summarizeRotations reduces a node's rotation samples to the medians and
// totals BENCH_6.json reports.
func summarizeRotations(node string, samples []eternal.TokenRotation) rotationSummary {
	sum := rotationSummary{Node: node, Samples: len(samples)}
	if len(samples) == 0 {
		return sum
	}
	med := func(get func(eternal.TokenRotation) float64) float64 {
		vals := make([]float64, 0, len(samples))
		for _, s := range samples {
			vals = append(vals, get(s))
		}
		slices.Sort(vals)
		return vals[len(vals)/2]
	}
	sum.IntervalP50 = med(func(s eternal.TokenRotation) float64 { return s.IntervalUs })
	sum.HoldP50 = med(func(s eternal.TokenRotation) float64 { return s.HoldUs })
	for _, s := range samples {
		sum.RetransTotal += s.RetransUs
		sum.SendTotal += s.SendUs
		sum.ChunksSent += s.ChunksSent
	}
	return sum
}

// recoveryRow is one configuration of the E8 sweep: foreground invocation
// latency while a replica with StateBytes of state recovers, split into
// the steady-state window and the recovery window.
type recoveryRow struct {
	StateBytes     int     `json:"state_bytes"`
	Mode           string  `json:"mode"`
	ChunkBytes     int     `json:"chunk_bytes"`
	ChunksPerToken int     `json:"chunks_per_token"`
	RecoveryMs     float64 `json:"recovery_ms"`
	SteadyP50Us    float64 `json:"steady_p50_us"`
	SteadyP99Us    float64 `json:"steady_p99_us"`
	RecoveryP50Us  float64 `json:"recovery_p50_us"`
	RecoveryP99Us  float64 `json:"recovery_p99_us"`
	// P99Ratio is the recovery-window p99 over the steady-state p99 — the
	// foreground degradation a client sees while the transfer streams.
	P99Ratio        float64 `json:"p99_ratio"`
	RecoverySamples int     `json:"recovery_samples"`
	ChunksSent      uint64  `json:"chunks_sent"`
	ChunkStalls     uint64  `json:"chunk_stalls"`
	Retransmits     uint64  `json:"retransmit_requests"`
}

// recoveryModes are the three transfer configurations the sweep compares.
var recoveryModes = []struct {
	name                 string
	chunkBytes, perToken int
}{
	{"one-chunk", 1 << 30, 0}, // bound above every bundle: the unpaced baseline
	{"chunked", 0, 0},         // 32 KiB default: transfer-throughput tuning
	{"paced", 8 << 10, 1},     // 8 KiB × 1/token: foreground-latency tuning
}

func runRecoverySweep(path string) {
	fmt.Println("E8 — foreground latency during recovery, one chunk vs chunked vs paced state transfer")
	fmt.Printf("%-10s %-11s %12s %14s %16s %10s\n",
		"state", "mode", "recovery ms", "steady p99 µs", "recovery p99 µs", "p99 ratio")
	var rows []recoveryRow
	for _, size := range []int{64 << 10, 1 << 20, 8 << 20} {
		for _, mode := range recoveryModes {
			row := benchRecovery(size, mode.name, mode.chunkBytes, mode.perToken)
			rows = append(rows, row)
			fmt.Printf("%-10s %-11s %12.1f %14.0f %16.0f %9.1fx\n",
				fmt.Sprintf("%dKiB", size>>10), row.Mode, row.RecoveryMs,
				row.SteadyP99Us, row.RecoveryP99Us, row.P99Ratio)
		}
	}
	writeJSON(path, map[string]any{
		"benchmark": "e8_recovery_vs_state_size",
		"generated": time.Now().UTC().Format(time.RFC3339),
		"medium":    "simulated 100 Mbps Ethernet, MTU 1518, 50us latency",
		"rows":      rows,
	})
}

// durQuantile returns the f-quantile of sorted durations (0 when empty).
func durQuantile(sorted []time.Duration, f float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(f * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// benchRecovery measures one sweep configuration: a packet driver streams
// two-way invocations against a 2-node active group while the second
// node's replica is killed and recovered.
func benchRecovery(size int, mode string, chunkBytes, perToken int) recoveryRow {
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes:               []string{"n1", "n2"},
		Network:             simnet.Config{BandwidthBps: 100_000_000, Latency: 50 * time.Microsecond, MTU: simnet.EthernetMTU},
		Totem:               totem.Config{TokenLossTimeout: 200 * time.Millisecond, JoinInterval: 10 * time.Millisecond, StableFor: 20 * time.Millisecond, Tick: time.Millisecond},
		ManagerTick:         5 * time.Millisecond,
		StateChunkBytes:     chunkBytes,
		StateChunksPerToken: perToken,
		DefaultTimeout:      120 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()
	sys.RegisterFactory("Blob", func(oid string) eternal.Replica { return newRecoveryBlob(size) })
	if err := sys.CreateGroup(eternal.GroupSpec{
		Name: "blob", TypeName: "Blob",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1},
		Nodes: []string{"n1", "n2"},
	}); err != nil {
		log.Fatal(err)
	}
	cl, err := sys.Client("n1", "driver")
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	obj, err := cl.Resolve("blob")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := obj.Invoke("ping", nil); err != nil {
		log.Fatal(err)
	}

	type sample struct {
		start time.Time
		rtt   time.Duration
	}
	var mu sync.Mutex
	var samples []sample
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := time.Now()
			if _, err := obj.Invoke("ping", nil); err != nil {
				continue
			}
			mu.Lock()
			samples = append(samples, sample{s, time.Since(s)})
			mu.Unlock()
		}
	}()
	time.Sleep(500 * time.Millisecond) // steady-state window
	killAt := time.Now()
	if err := sys.Node("n2").KillReplica("blob", 30*time.Second); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := sys.Node("n2").RecoverReplica("blob", 120*time.Second); err != nil {
		log.Fatal(err)
	}
	recoveredAt := time.Now()
	close(stop)
	wg.Wait()

	var steady, during []time.Duration
	for _, s := range samples {
		end := s.start.Add(s.rtt)
		switch {
		case end.Before(killAt):
			steady = append(steady, s.rtt)
		case s.start.Before(recoveredAt) && end.After(start):
			during = append(during, s.rtt)
		}
	}
	slices.Sort(steady)
	slices.Sort(during)
	steadyP99 := durQuantile(steady, 0.99)
	duringP99 := durQuantile(during, 0.99)
	ratio := 0.0
	if steadyP99 > 0 {
		ratio = float64(duringP99) / float64(steadyP99)
	}
	st := sys.Node("n1").Stats()
	st2 := sys.Node("n2").Stats()
	return recoveryRow{
		StateBytes:      size,
		Mode:            mode,
		ChunkBytes:      chunkBytes,
		ChunksPerToken:  perToken,
		RecoveryMs:      float64(recoveredAt.Sub(start).Microseconds()) / 1000,
		SteadyP50Us:     float64(durQuantile(steady, 0.5).Microseconds()),
		SteadyP99Us:     float64(steadyP99.Microseconds()),
		RecoveryP50Us:   float64(durQuantile(during, 0.5).Microseconds()),
		RecoveryP99Us:   float64(duringP99.Microseconds()),
		P99Ratio:        ratio,
		RecoverySamples: len(during),
		ChunksSent:      st.StateChunksSent,
		ChunkStalls:     st.StateChunkStalls,
		Retransmits:     st2.StateRetransmitRequests,
	}
}

// newRecoveryBlob is the E8 replica: a byte blob of the given size plus an
// invocation counter driven by "ping".
func newRecoveryBlob(size int) eternal.Replica {
	return &recoveryBlob{state: make([]byte, size)}
}

type recoveryBlob struct {
	mu    sync.Mutex
	state []byte
	n     uint64
}

func (b *recoveryBlob) Invoke(op string, args []byte, order eternal.ByteOrder) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch op {
	case "ping":
		b.n++
		e := eternal.NewEncoder(order)
		e.WriteULongLong(b.n)
		return e.Bytes(), nil
	default:
		return nil, orb.BadOperation()
	}
}

func (b *recoveryBlob) GetState() (eternal.Any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := eternal.NewEncoder(eternal.BigEndian)
	e.WriteULongLong(b.n)
	e.WriteOctetSeq(b.state)
	return eternal.AnyFromBytes(e.Bytes()), nil
}

func (b *recoveryBlob) SetState(st eternal.Any) error {
	raw, err := st.Bytes()
	if err != nil {
		return eternal.ErrInvalidState
	}
	d := eternal.NewDecoder(raw, eternal.BigEndian)
	n, err := d.ReadULongLong()
	if err != nil {
		return eternal.ErrInvalidState
	}
	state, err := d.ReadOctetSeq()
	if err != nil {
		return eternal.ErrInvalidState
	}
	b.mu.Lock()
	b.n, b.state = n, state
	b.mu.Unlock()
	return nil
}
