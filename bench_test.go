// The two paper ablations no bench/ row covers. Everything else the paper's
// evaluation (§6) measures has its one home in the table at the top of
// EXPERIMENTS.md.
//
//	E3 (§3/§6)  BenchmarkReplicationStyles   failover/recovery cost by replication style
//	§5 sweep    BenchmarkCheckpointInterval  checkpoint frequency trade-off
package eternal_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eternal"
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
