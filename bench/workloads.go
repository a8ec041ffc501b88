package main

import (
	"time"

	"eternal"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// The fixed configuration of every workload. Run length, client counts and
// the medium are not flags: two runs of the benchmark differ only in
// workload, seed and whether they are traced.
const (
	groupName = "bench"
	typeName  = "Bench"

	// invokeTimeout bounds one invocation; a request that misses it is
	// counted as failed and the run goes on.
	invokeTimeout = 2 * time.Second
	// warmup precedes every measured window on a fresh cluster: the ring
	// settles, pools fill, the first connections are up.
	warmup = 500 * time.Millisecond
	// adminTimeout bounds cluster set-up and each kill or recovery.
	adminTimeout = 20 * time.Second
)

// lan100 is the medium of every workload: the paper's 100 Mbit/s shared
// Ethernet with 50 µs propagation delay and 1518-byte frames. simnet
// delivers any delay below its 2 ms timer floor synchronously, so a small
// frame on an idle wire arrives in the sender's own call.
func lan100() simnet.Config {
	return simnet.Config{BandwidthBps: 100_000_000, Latency: 50 * time.Microsecond, MTU: simnet.EthernetMTU}
}

func benchTotem() totem.Config {
	return totem.Config{
		TokenLossTimeout: 200 * time.Millisecond,
		JoinInterval:     10 * time.Millisecond,
		StableFor:        20 * time.Millisecond,
		Tick:             time.Millisecond,
	}
}

func systemConfig(nodes []string) eternal.SystemConfig {
	return eternal.SystemConfig{
		Nodes:          nodes,
		Network:        lan100(),
		Totem:          benchTotem(),
		ManagerTick:    5 * time.Millisecond,
		DefaultTimeout: adminTimeout,
	}
}

// clientSpec is one client connection: the node it attaches to and the
// operation it invokes.
type clientSpec struct {
	Node string
	Op   string
}

// workload is one set of inputs. Every workload the driver runs has the
// same shape: a steady window of foreground traffic on an undisturbed
// group, then a churn window in which one replica is killed and recovered
// again and again under the same traffic.
type workload struct {
	Name string
	Why  string
	// Nodes are started with the system and each hosts a replica.
	Nodes []string
	Style eternal.ReplicationStyle
	// Blob is the size of the servant's state beside its counter.
	Blob int
	// Checkpoint is the warm-passive checkpoint interval.
	Checkpoint time.Duration
	Clients    []clientSpec
	// OpenRate, when positive, replaces the closed loop of the (single)
	// client with an open loop at this many invocations per second.
	OpenRate float64
	// Reps is the number of fresh clusters one run measures; the run's
	// seconds are split evenly between them.
	Reps int
	// ChurnShare is the part of each repetition's window spent in churn.
	ChurnShare float64
	// ChurnNode hosts the replica that churn kills and recovers. Empty
	// means the workload has no churn window: a group of one replica has
	// nothing to recover from.
	ChurnNode string
	// SpacingLo..SpacingHi is the seeded pause between a recovery and
	// the next kill.
	SpacingLo, SpacingHi time.Duration
}

var n1, n12, n123 = []string{"n1"}, []string{"n1", "n2"}, []string{"n1", "n2", "n3"}

const (
	kib = 1 << 10
	mib = 1 << 20
)

// driverWorkloads is how many of the workloads, from the front of the
// list, BENCHMARK.json names for the driver, in the same order. The two
// after them are run by -all only: they cannot give the driver every
// end-to-end metric, steadily (README, "Why two of the six").
const driverWorkloads = 4

var workloads = []workload{
	{
		Name:  "active3_serial",
		Why:   "3-way active, one closed-loop ping client at the ring leader: the paper's configuration; token rotation dominates and marshalling is noise",
		Nodes: n123, Style: eternal.Active, Blob: 64 * kib,
		Clients: []clientSpec{{"n1", "ping"}},
		Reps:    8, ChurnShare: 0.25, ChurnNode: "n3",
		SpacingLo: 10 * time.Millisecond, SpacingHi: 20 * time.Millisecond,
	},
	{
		Name:  "active3_pair",
		Why:   "3-way active, two closed-loop clients (leader and non-leader) echoing 64-1024 B: concurrent senders, payload bytes, packing; a serial-latency win that costs throughput shows here",
		Nodes: n123, Style: eternal.Active, Blob: 64 * kib,
		Clients: []clientSpec{{"n1", "echo"}, {"n3", "echo"}},
		Reps:    8, ChurnShare: 0.25, ChurnNode: "n2",
		SpacingLo: 10 * time.Millisecond, SpacingHi: 20 * time.Millisecond,
	},
	{
		Name:  "passive3_ckpt",
		Why:   "3-node warm-passive, 64 KiB state, checkpoint every 100 ms: one executor, backups logging, periodic get_state/set_state and log GC beside foreground traffic",
		Nodes: n123, Style: eternal.WarmPassive, Blob: 64 * kib, Checkpoint: 100 * time.Millisecond,
		Clients: []clientSpec{{"n1", "ping"}},
		Reps:    8, ChurnShare: 0.25, ChurnNode: "n3",
		SpacingLo: 10 * time.Millisecond, SpacingHi: 20 * time.Millisecond,
	},
	{
		Name:  "recover_1m",
		Why:   "3-way active, 1 MiB state, a replica killed and recovered most of the run: state transfer (bundle, chunks, fragmentation, wire bandwidth) does the work, the invocation path little",
		Nodes: n123, Style: eternal.Active, Blob: mib,
		Clients: []clientSpec{{"n1", "ping"}},
		Reps:    8, ChurnShare: 0.6, ChurnNode: "n3",
		SpacingLo: 50 * time.Millisecond, SpacingHi: 100 * time.Millisecond,
	},
	active2Open,
	stack1,
}

// active2Open is the leader fast path under an open loop. It is not in
// BENCHMARK.json because a 2-member ring is not steady at the seed (README,
// Findings); -all runs it.
var active2Open = workload{
	Name:  "active2_open",
	Why:   "2-way active on the leader fast path, open loop at 4000 inv/s timed from due times: stalls and backlog are counted, not hidden by a client that waits",
	Nodes: n12, Style: eternal.Active, Blob: 64 * kib,
	Clients:  []clientSpec{{"n1", "ping"}},
	OpenRate: 4000,
	Reps:     8, ChurnShare: 0.25, ChurnNode: "n2",
	SpacingLo: 10 * time.Millisecond, SpacingHi: 20 * time.Millisecond,
}

// stack1 is the single-node baseline: the whole interposition stack with
// ordering reduced to a ring of one.
var stack1 = workload{
	Name:  "stack1_serial",
	Why:   "1 node, 1-way group, one closed-loop ping client: ordering is trivial, so the per-message CPU layers (orb, interceptor, giop, envelope, dispatch) are the whole cost",
	Nodes: n1, Style: eternal.Active, Blob: 64 * kib,
	Clients: []clientSpec{{"n1", "ping"}},
	Reps:    8,
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
