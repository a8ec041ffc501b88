// Command benchfig6 regenerates the paper's Figure 6: the time to recover
// a failed replica of an actively replicated server, as a function of the
// size of the replica's application-level state (10 B – 350 000 B), with a
// packet-driver client streaming two-way invocations throughout.
//
// The medium models the paper's testbed: 100 Mbps shared Ethernet with
// 1518-byte frames, so state larger than one frame travels as multiple
// totally-ordered multicast messages and recovery time grows with state
// size — the figure's shape.
//
//	go run ./cmd/benchfig6 [-iters 5] [-csv] [-json BENCH_fig6.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"eternal"
	"eternal/internal/obs"
	"eternal/internal/orb"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// blob carries an opaque state payload of configurable size.
type blob struct {
	mu    sync.Mutex
	state []byte
}

func (b *blob) Invoke(op string, args []byte, order eternal.ByteOrder) ([]byte, error) {
	if op != "ping" {
		return nil, orb.BadOperation()
	}
	return nil, nil
}

func (b *blob) GetState() (eternal.Any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return eternal.AnyFromBytes(b.state), nil
}

func (b *blob) SetState(st eternal.Any) error {
	raw, err := st.Bytes()
	if err != nil {
		return eternal.ErrInvalidState
	}
	b.mu.Lock()
	b.state = raw
	b.mu.Unlock()
	return nil
}

// sizePoint is one Figure 6 data point: mean recovery time for one state
// size, with its per-phase decomposition from the recovery timelines.
type sizePoint struct {
	StateBytes  int     `json:"state_bytes"`
	RecoveryMs  float64 `json:"recovery_ms"`
	Frames      uint64  `json:"frames"`
	BytesOnWire uint64  `json:"bytes_on_wire"`
	CaptureMs   float64 `json:"capture_ms"`
	TransferMs  float64 `json:"transfer_ms"`
	ApplyMs     float64 `json:"apply_ms"`
	ReplayMs    float64 `json:"replay_ms"`
}

func main() {
	iters := flag.Int("iters", 5, "recovery cycles per state size")
	csv := flag.Bool("csv", false, "emit CSV instead of a table")
	jsonPath := flag.String("json", "", "also write the series as JSON to this file (e.g. BENCH_fig6.json)")
	flag.Parse()

	sizes := []int{10, 1_000, 5_000, 10_000, 25_000, 50_000, 100_000, 150_000, 200_000, 250_000, 300_000, 350_000}

	if *csv {
		fmt.Println("state_bytes,recovery_ms,frames,bytes_on_wire,capture_ms,transfer_ms,apply_ms,replay_ms")
	} else {
		fmt.Println("Figure 6 — recovery time of a server replica vs application-level state size")
		fmt.Println("(100 Mbps simulated Ethernet, MTU 1518, packet-driver client running throughout)")
		fmt.Printf("%12s  %14s  %10s  %14s  %26s\n", "state (B)", "recovery (ms)", "frames", "bytes on wire", "capture/transfer/apply (ms)")
	}

	var series []sizePoint
	for _, size := range sizes {
		pt := measure(size, *iters)
		series = append(series, pt)
		if *csv {
			fmt.Printf("%d,%.3f,%d,%d,%.3f,%.3f,%.3f,%.3f\n", pt.StateBytes, pt.RecoveryMs,
				pt.Frames, pt.BytesOnWire, pt.CaptureMs, pt.TransferMs, pt.ApplyMs, pt.ReplayMs)
		} else {
			fmt.Printf("%12d  %14.2f  %10d  %14d  %9.2f/%7.2f/%6.2f\n", pt.StateBytes, pt.RecoveryMs,
				pt.Frames, pt.BytesOnWire, pt.CaptureMs, pt.TransferMs, pt.ApplyMs)
		}
	}
	if *jsonPath != "" {
		writeJSON(*jsonPath, map[string]any{
			"benchmark":   "fig6_recovery_time_vs_state_size",
			"iters":       *iters,
			"generated":   time.Now().UTC().Format(time.RFC3339),
			"medium":      "100 Mbps simulated Ethernet, MTU 1518",
			"recovery_ms": series,
		})
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

// measure returns the mean recovery time, wire cost and per-phase
// decomposition over iters kill/recover cycles at one state size.
func measure(stateSize, iters int) sizePoint {
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: []string{"n1", "n2"},
		Network: simnet.Config{
			BandwidthBps: 100_000_000,
			Latency:      50 * time.Microsecond,
			MTU:          simnet.EthernetMTU,
		},
		Totem: totem.Config{
			TokenLossTimeout: 200 * time.Millisecond,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        20 * time.Millisecond,
			Tick:             time.Millisecond,
		},
		ManagerTick:    5 * time.Millisecond,
		DefaultTimeout: 120 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()

	sys.RegisterFactory("Blob", func(oid string) eternal.Replica {
		st := make([]byte, stateSize)
		for i := range st {
			st[i] = byte(i)
		}
		return &blob{state: st}
	})
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

	// The paper's packet driver: a constant stream of two-way invocations
	// for the duration of the experiment.
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
				obj.Invoke("ping", nil)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	var total time.Duration
	var frames, bytes uint64
	for i := 0; i < iters; i++ {
		pre := sys.Network().Stats()
		if err := sys.Node("n2").KillReplica("blob", 60*time.Second); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if err := sys.Node("n2").RecoverReplica("blob", 120*time.Second); err != nil {
			log.Fatal(err)
		}
		total += time.Since(start)
		post := sys.Network().Stats()
		frames += post.FramesSent - pre.FramesSent
		bytes += post.BytesOnWire - pre.BytesOnWire
	}
	n := uint64(iters)
	pt := sizePoint{
		StateBytes:  stateSize,
		RecoveryMs:  float64(total.Microseconds()) / float64(iters) / 1000,
		Frames:      frames / n,
		BytesOnWire: bytes / n,
	}
	// Phase means from the recovering node's timelines (newest first; the
	// run produced exactly iters of them on this fresh system).
	timelines := sys.Node("n2").RecoveryTimelines()
	if len(timelines) > iters {
		timelines = timelines[:iters]
	}
	for _, tl := range timelines {
		pt.CaptureMs += phaseMs(tl, obs.PhaseCapture)
		pt.TransferMs += phaseMs(tl, obs.PhaseTransfer)
		pt.ApplyMs += phaseMs(tl, obs.PhaseApply)
		pt.ReplayMs += phaseMs(tl, obs.PhaseReplay)
	}
	if len(timelines) > 0 {
		c := float64(len(timelines))
		pt.CaptureMs /= c
		pt.TransferMs /= c
		pt.ApplyMs /= c
		pt.ReplayMs /= c
	}
	return pt
}

func phaseMs(tl eternal.RecoveryTimeline, phase string) float64 {
	return float64(tl.PhaseDuration(phase).Microseconds()) / 1000
}
