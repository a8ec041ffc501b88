// Benchmarks regenerating the paper's evaluation (§6). See EXPERIMENTS.md
// for the experiment index and measured results.
//
//	E1 (Figure 6)  BenchmarkRecoveryStateSize    recovery time vs application-level state size
//	E2 (§6 text)   BenchmarkInvocationOverhead   fault-tolerant vs unreplicated response time
//	E3 (§3/§6)     BenchmarkReplicationStyles    failover/recovery cost by replication style
//	ablation       BenchmarkRecoveryUnderLoad    recovery concurrent with normal operation
//	ablation       BenchmarkCheckpointInterval   checkpoint frequency trade-off (§5)
//	substrate      BenchmarkTotemMulticast       ordered-multicast cost by group size
//	perf           BenchmarkSustainedThroughput  sustained invocation rate under concurrent clients
//	E8 (§5.1)      BenchmarkRecoveryVsStateSize  foreground latency during recovery, many paced chunks vs one chunk
package eternal_test

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eternal"
	"eternal/internal/cdr"
	"eternal/internal/orb"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// blob is a replica whose application-level state is an opaque byte blob
// of configurable size — the paper's Figure 6 variable.
type blob struct {
	mu    sync.Mutex
	state []byte
	n     uint64
}

func newBlob(size int) *blob {
	st := make([]byte, size)
	for i := range st {
		st[i] = byte(i)
	}
	return &blob{state: st}
}

func (b *blob) Invoke(op string, args []byte, order eternal.ByteOrder) ([]byte, error) {
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

func (b *blob) GetState() (eternal.Any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := eternal.NewEncoder(eternal.BigEndian)
	e.WriteULongLong(b.n)
	e.WriteOctetSeq(b.state)
	return eternal.AnyFromBytes(e.Bytes()), nil
}

func (b *blob) SetState(st eternal.Any) error {
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

// paperLAN models the paper's testbed medium: 100 Mbps shared Ethernet,
// 1518-byte frames, ~50µs propagation.
func paperLAN() simnet.Config {
	return simnet.Config{
		BandwidthBps: 100_000_000,
		Latency:      50 * time.Microsecond,
		MTU:          simnet.EthernetMTU,
	}
}

func benchTotem() totem.Config {
	return totem.Config{
		TokenLossTimeout: 200 * time.Millisecond,
		JoinInterval:     10 * time.Millisecond,
		StableFor:        20 * time.Millisecond,
		Tick:             time.Millisecond,
	}
}

func benchSystem(b *testing.B, netCfg simnet.Config, size int, style eternal.ReplicationStyle, nodes ...string) (*eternal.System, *eternal.ObjectRef) {
	b.Helper()
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes:          nodes,
		Network:        netCfg,
		Totem:          benchTotem(),
		ManagerTick:    5 * time.Millisecond,
		DefaultTimeout: 60 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Shutdown)
	sys.RegisterFactory("Blob", func(oid string) eternal.Replica { return newBlob(size) })
	props := eternal.Properties{Style: style, InitialReplicas: len(nodes), MinReplicas: 1}
	if style != eternal.Active {
		props.CheckpointInterval = 50 * time.Millisecond
	}
	if err := sys.CreateGroup(eternal.GroupSpec{
		Name: "blob", TypeName: "Blob", Props: props, Nodes: nodes,
	}); err != nil {
		b.Fatal(err)
	}
	cl, err := sys.Client(nodes[0], "driver")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	obj, err := cl.Resolve("blob")
	if err != nil {
		b.Fatal(err)
	}
	return sys, obj
}

func ping(b *testing.B, obj *eternal.ObjectRef) {
	b.Helper()
	if _, err := obj.Invoke("ping", nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecoveryStateSize is E1 / Figure 6: the time to recover a
// failed replica of an actively replicated server, as a function of the
// size of the replica's application-level state, with a packet-driver
// client streaming two-way invocations throughout. State larger than one
// Ethernet frame travels as multiple multicast messages, so recovery time
// grows with state size.
func BenchmarkRecoveryStateSize(b *testing.B) {
	for _, size := range []int{10, 1_000, 10_000, 50_000, 100_000, 200_000, 350_000} {
		b.Run(fmt.Sprintf("state=%dB", size), func(b *testing.B) {
			sys, obj := benchSystem(b, paperLAN(), size, eternal.Active, "n1", "n2")
			ping(b, obj)

			// The paper's packet driver: a constant stream of two-way
			// invocations for the duration of the experiment.
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

			b.ResetTimer()
			var total time.Duration
			for i := 0; i < b.N; i++ {
				if err := sys.Node("n2").KillReplica("blob", 30*time.Second); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if err := sys.Node("n2").RecoverReplica("blob", 60*time.Second); err != nil {
					b.Fatal(err)
				}
				total += time.Since(start)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(total.Microseconds())/float64(b.N)/1000, "ms/recovery")
		})
	}
}

// BenchmarkInvocationOverhead is E2: the response time of a two-way
// invocation through the full Eternal stack (interception + totally
// ordered multicast + duplicate suppression, three-way active
// replication) against the same ORB talking plain IIOP over TCP loopback
// with no replication. The paper reports 10–15% overhead on its testbed;
// see EXPERIMENTS.md for how the simulated medium is calibrated.
func BenchmarkInvocationOverhead(b *testing.B) {
	b.Run("unreplicated-tcp", func(b *testing.B) {
		srv := orb.NewServer(orb.ServerOptions{})
		inst := newBlob(10)
		srv.RootPOA().Activate("blob", orb.ServantFunc(func(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
			return inst.Invoke(op, args, order)
		}))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(l)
		b.Cleanup(srv.Close)
		addr := l.Addr().(*net.TCPAddr)
		o := orb.NewORB(orb.Options{RequestTimeout: 30 * time.Second})
		b.Cleanup(o.Close)
		ref := srv.RootPOA().IOR("IDL:Blob:1.0", "127.0.0.1", uint16(addr.Port), "blob")
		obj, err := o.Object(ref)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := obj.Invoke("ping", nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := obj.Invoke("ping", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, replicas := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("eternal-active-%d", replicas), func(b *testing.B) {
			nodes := []string{"n1", "n2", "n3"}[:replicas]
			_, obj := benchSystem(b, paperLAN(), 10, eternal.Active, nodes...)
			ping(b, obj)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ping(b, obj)
			}
		})
	}
}

// BenchmarkReplicationStyles is E3: the recovery/failover cost of the
// three replication styles (paper §3, §6: active masks failures and
// recovers fastest; warm passive must replay the log; cold passive must
// also instantiate and load the checkpoint).
func BenchmarkReplicationStyles(b *testing.B) {
	const stateSize = 50_000
	b.Run("active-mask-failure", func(b *testing.B) {
		sys, obj := benchSystem(b, paperLAN(), stateSize, eternal.Active, "n1", "n2", "n3")
		ping(b, obj)
		b.ResetTimer()
		var total time.Duration
		for i := 0; i < b.N; i++ {
			// Kill a non-donor replica and measure the next response:
			// active replication masks the failure entirely.
			if err := sys.Node("n3").KillReplica("blob", 30*time.Second); err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			ping(b, obj)
			total += time.Since(start)
			b.StopTimer()
			if err := sys.Node("n3").RecoverReplica("blob", 60*time.Second); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(total.Microseconds())/float64(b.N)/1000, "ms/failover")
	})
	for _, style := range []eternal.ReplicationStyle{eternal.WarmPassive, eternal.ColdPassive} {
		b.Run(fmt.Sprintf("%s-promote", style), func(b *testing.B) {
			b.ResetTimer()
			var total time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Fresh system per iteration: promotion is one-shot.
				sys, obj := benchSystem(b, paperLAN(), stateSize, style, "n1", "n2")
				for j := 0; j < 20; j++ {
					ping(b, obj)
				}
				time.Sleep(120 * time.Millisecond) // a checkpoint lands
				for j := 0; j < 5; j++ {
					ping(b, obj) // logged since the checkpoint
				}
				b.StartTimer()
				start := time.Now()
				if err := sys.Node("n1").KillReplica("blob", 30*time.Second); err != nil {
					b.Fatal(err)
				}
				if err := sys.Node("n2").AwaitPromoted("blob", "n2", 60*time.Second); err != nil {
					b.Fatal(err)
				}
				ping(b, obj) // first response from the new primary
				total += time.Since(start)
				b.StopTimer()
				sys.Shutdown()
				b.StartTimer()
			}
			b.ReportMetric(float64(total.Microseconds())/float64(b.N)/1000, "ms/failover")
		})
	}
}

// BenchmarkRecoveryUnderLoad is the §5.1 ablation: the protocol keeps
// existing replicas processing during a transfer, so recovery time under
// a client load stays close to idle recovery time instead of stalling the
// service.
func BenchmarkRecoveryUnderLoad(b *testing.B) {
	for _, load := range []bool{false, true} {
		name := "idle"
		if load {
			name = "loaded"
		}
		b.Run(name, func(b *testing.B) {
			sys, obj := benchSystem(b, paperLAN(), 100_000, eternal.Active, "n1", "n2")
			ping(b, obj)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			if load {
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
			}
			b.ResetTimer()
			var total time.Duration
			for i := 0; i < b.N; i++ {
				if err := sys.Node("n2").KillReplica("blob", 30*time.Second); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if err := sys.Node("n2").RecoverReplica("blob", 60*time.Second); err != nil {
					b.Fatal(err)
				}
				total += time.Since(start)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(total.Microseconds())/float64(b.N)/1000, "ms/recovery")
		})
	}
}

// BenchmarkTotemMulticast measures the raw ordered-multicast cost by ring
// size — the substrate share of every Eternal invocation.
func BenchmarkTotemMulticast(b *testing.B) {
	for _, members := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("ring=%d", members), func(b *testing.B) {
			net := simnet.New(paperLAN())
			var procs []*totem.Processor
			for i := 0; i < members; i++ {
				ep, err := net.Join(fmt.Sprintf("p%d", i))
				if err != nil {
					b.Fatal(err)
				}
				cfg := benchTotem()
				cfg.Transport = totem.NewSimnetTransport(ep)
				p, err := totem.Start(cfg)
				if err != nil {
					b.Fatal(err)
				}
				procs = append(procs, p)
			}
			b.Cleanup(func() {
				for _, p := range procs {
					p.Stop()
				}
			})
			// Wait for the full ring.
			deadline := time.After(10 * time.Second)
			for {
				var v totem.Membership
				select {
				case v = <-procs[0].Views():
				case <-deadline:
					b.Fatal("ring never formed")
				}
				if len(v.Members) == members {
					break
				}
			}
			payload := make([]byte, 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := procs[0].Multicast(payload); err != nil {
					b.Fatal(err)
				}
				// Wait for self-delivery: one full ordered round trip.
				for {
					d := <-procs[0].Deliveries()
					if d.View == nil {
						break
					}
				}
			}
		})
	}
}

// BenchmarkSustainedThroughput measures the invocation rate the replicated
// stack sustains under N concurrent clients — the workload the hot-path
// optimisations (Totem message packing, pooled marshaling) target. Packing
// matters exactly here: concurrent clients keep multiple sub-MTU envelopes
// pending at the token holder, which packs them into shared frames.
// Reported per variant: inv/s (aggregate sustained rate), frames/inv
// (simulated-medium frames per invocation, the packing win) and allocs/op.
func BenchmarkSustainedThroughput(b *testing.B) {
	for _, packing := range []totem.PackingFlag{totem.PackingDefault, totem.PackingOff} {
		for _, clients := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("packing=%v/clients=%d", packing != totem.PackingOff, clients), func(b *testing.B) {
				nodes := []string{"n1", "n2", "n3"}
				sys, err := eternal.NewSystem(eternal.SystemConfig{
					Nodes:   nodes,
					Network: paperLAN(),
					Totem: func() totem.Config {
						cfg := benchTotem()
						cfg.Packing = packing
						return cfg
					}(),
					ManagerTick:    5 * time.Millisecond,
					DefaultTimeout: 60 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(sys.Shutdown)
				sys.RegisterFactory("Blob", func(oid string) eternal.Replica { return newBlob(10) })
				if err := sys.CreateGroup(eternal.GroupSpec{
					Name: "blob", TypeName: "Blob",
					Props: eternal.Properties{Style: eternal.Active, InitialReplicas: len(nodes), MinReplicas: 1},
					Nodes: nodes,
				}); err != nil {
					b.Fatal(err)
				}
				objs := make([]*eternal.ObjectRef, clients)
				for i := range objs {
					cl, err := sys.Client(nodes[i%len(nodes)], fmt.Sprintf("driver%d", i))
					if err != nil {
						b.Fatal(err)
					}
					b.Cleanup(cl.Close)
					if objs[i], err = cl.Resolve("blob"); err != nil {
						b.Fatal(err)
					}
					ping(b, objs[i])
				}
				pre := sys.Network().Stats()
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				var next atomic.Int64
				var wg sync.WaitGroup
				for _, obj := range objs {
					wg.Add(1)
					go func(obj *eternal.ObjectRef) {
						defer wg.Done()
						for next.Add(1) <= int64(b.N) {
							if _, err := obj.Invoke("ping", nil); err != nil {
								b.Error(err)
								return
							}
						}
					}(obj)
				}
				wg.Wait()
				elapsed := time.Since(start)
				b.StopTimer()
				post := sys.Network().Stats()
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "inv/s")
				b.ReportMetric(float64(post.FramesSent-pre.FramesSent)/float64(b.N), "frames/inv")
			})
		}
	}
}

// BenchmarkCheckpointInterval is the §5 ablation on the user-chosen
// checkpointing frequency: frequent checkpoints cost wire bandwidth in
// fault-free operation but shrink the log a promoted backup must replay;
// infrequent checkpoints invert the trade. Reported per interval: the
// fault-free frames per invocation and the failover time.
func BenchmarkCheckpointInterval(b *testing.B) {
	for _, interval := range []time.Duration{25 * time.Millisecond, 100 * time.Millisecond, 400 * time.Millisecond} {
		b.Run(interval.String(), func(b *testing.B) {
			var failover time.Duration
			var framesPerInv float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := eternal.NewSystem(eternal.SystemConfig{
					Nodes:          []string{"n1", "n2"},
					Network:        paperLAN(),
					Totem:          benchTotem(),
					ManagerTick:    5 * time.Millisecond,
					DefaultTimeout: 60 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				sys.RegisterFactory("Blob", func(oid string) eternal.Replica { return newBlob(20_000) })
				if err := sys.CreateGroup(eternal.GroupSpec{
					Name: "blob", TypeName: "Blob",
					Props: eternal.Properties{
						Style: eternal.WarmPassive, InitialReplicas: 2, MinReplicas: 1,
						CheckpointInterval: interval,
					},
					Nodes: []string{"n1", "n2"},
				}); err != nil {
					b.Fatal(err)
				}
				cl, _ := sys.Client("n1", "driver")
				obj, err := cl.Resolve("blob")
				if err != nil {
					b.Fatal(err)
				}
				pre := sys.Network().Stats()
				for j := 0; j < 80; j++ {
					if _, err := obj.Invoke("ping", nil); err != nil {
						b.Fatal(err)
					}
					time.Sleep(2 * time.Millisecond) // spread over checkpoint windows
				}
				post := sys.Network().Stats()
				framesPerInv = float64(post.FramesSent-pre.FramesSent) / 80
				b.StartTimer()
				start := time.Now()
				if err := sys.Node("n1").KillReplica("blob", 30*time.Second); err != nil {
					b.Fatal(err)
				}
				if err := sys.Node("n2").AwaitPromoted("blob", "n2", 60*time.Second); err != nil {
					b.Fatal(err)
				}
				failover += time.Since(start)
				b.StopTimer()
				cl.Close()
				sys.Shutdown()
				b.StartTimer()
			}
			b.ReportMetric(float64(failover.Microseconds())/float64(b.N)/1000, "ms/failover")
			b.ReportMetric(framesPerInv, "frames/inv")
		})
	}
}

// chunkBenchSystem is benchSystem with the state-transfer chunking knobs
// exposed: chunkBytes 0 selects the default (~32 KiB); perToken caps chunk
// multicasts per token rotation (0 = default).
func chunkBenchSystem(b *testing.B, netCfg simnet.Config, size, chunkBytes, perToken int, nodes ...string) (*eternal.System, *eternal.ObjectRef) {
	b.Helper()
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes:               nodes,
		Network:             netCfg,
		Totem:               benchTotem(),
		ManagerTick:         5 * time.Millisecond,
		StateChunkBytes:     chunkBytes,
		StateChunksPerToken: perToken,
		DefaultTimeout:      120 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Shutdown)
	sys.RegisterFactory("Blob", func(oid string) eternal.Replica { return newBlob(size) })
	if err := sys.CreateGroup(eternal.GroupSpec{
		Name: "blob", TypeName: "Blob",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: len(nodes), MinReplicas: 1},
		Nodes: nodes,
	}); err != nil {
		b.Fatal(err)
	}
	cl, err := sys.Client(nodes[0], "driver")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	obj, err := cl.Resolve("blob")
	if err != nil {
		b.Fatal(err)
	}
	return sys, obj
}

// p99Of returns the 99th-percentile of the samples (0 when empty).
func p99Of(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	slices.Sort(sorted)
	idx := len(sorted) * 99 / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// BenchmarkRecoveryVsStateSize is E8: what the chunked, flow-controlled
// state transfer buys. A packet driver streams two-way invocations while a
// replica with 64 KiB – 8 MiB of state is killed and recovered; the
// per-invocation latencies are split into a steady-state window and the
// recovery window. Three modes: one-chunk (a chunk bound no bundle here
// reaches, so the whole state is one envelope and every foreground
// invocation submitted behind it queues for its full serialization — the
// unpaced baseline), chunked (the 32 KiB default, tuned for
// transfer throughput), and paced (8 KiB chunks at one per token rotation,
// tuned for foreground latency — see doc/PERFORMANCE.md).
func BenchmarkRecoveryVsStateSize(b *testing.B) {
	modes := []struct {
		name                 string
		chunkBytes, perToken int
	}{
		{"one-chunk", 1 << 30, 0},
		{"chunked", 0, 0},
		{"paced", 8 << 10, 1},
	}
	for _, size := range []int{64 << 10, 1 << 20, 8 << 20} {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("state=%dKiB/%s", size>>10, mode.name), func(b *testing.B) {
				sys, obj := chunkBenchSystem(b, paperLAN(), size, mode.chunkBytes, mode.perToken, "n1", "n2")
				ping(b, obj)

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
				time.Sleep(300 * time.Millisecond) // steady-state window

				b.ResetTimer()
				var total time.Duration
				var steady, during []time.Duration
				for i := 0; i < b.N; i++ {
					killAt := time.Now()
					if err := sys.Node("n2").KillReplica("blob", 30*time.Second); err != nil {
						b.Fatal(err)
					}
					start := time.Now()
					if err := sys.Node("n2").RecoverReplica("blob", 120*time.Second); err != nil {
						b.Fatal(err)
					}
					recoveredAt := time.Now()
					total += recoveredAt.Sub(start)
					mu.Lock()
					for _, s := range samples {
						end := s.start.Add(s.rtt)
						switch {
						case end.Before(killAt):
							steady = append(steady, s.rtt)
						case s.start.Before(recoveredAt) && end.After(start):
							during = append(during, s.rtt)
						}
					}
					samples = samples[:0]
					mu.Unlock()
				}
				b.StopTimer()
				close(stop)
				wg.Wait()
				b.ReportMetric(float64(total.Microseconds())/float64(b.N)/1000, "ms/recovery")
				b.ReportMetric(float64(p99Of(steady).Microseconds())/1000, "steady-p99-ms")
				b.ReportMetric(float64(p99Of(during).Microseconds())/1000, "recovery-p99-ms")
				st := sys.Node("n1").Stats()
				b.ReportMetric(float64(st.StateChunksSent)/float64(b.N), "chunks/recovery")
			})
		}
	}
}
