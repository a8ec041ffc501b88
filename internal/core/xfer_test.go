package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"eternal/internal/anyval"
	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
	"eternal/internal/obs"
	"eternal/internal/orb"
	"eternal/internal/recovery"
	"eternal/internal/replication"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// blobReplica carries a byte-blob state of configurable size plus an
// invocation counter, so recovery correctness (the counter survives) and
// transfer size (the blob forces chunking) are tested together.
type blobReplica struct {
	mu    sync.Mutex
	state []byte
	n     uint64
}

func newBlobReplica(size int) *blobReplica {
	st := make([]byte, size)
	for i := range st {
		st[i] = byte(i*7 ^ (i >> 8 * 31))
	}
	return &blobReplica{state: st}
}

func (b *blobReplica) Invoke(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch op {
	case "ping":
		b.n++
		e := cdr.NewEncoder(order)
		e.WriteULongLong(b.n)
		return e.Bytes(), nil
	default:
		return nil, orb.BadOperation()
	}
}

func (b *blobReplica) GetState() (anyval.Any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteULongLong(b.n)
	e.WriteOctetSeq(b.state)
	return anyval.FromBytes(e.Bytes()), nil
}

func (b *blobReplica) SetState(st anyval.Any) error {
	raw, err := st.Bytes()
	if err != nil {
		return ftcorba.ErrInvalidState
	}
	d := cdr.NewDecoder(raw, cdr.BigEndian)
	n, err := d.ReadULongLong()
	if err != nil {
		return ftcorba.ErrInvalidState
	}
	state, err := d.ReadOctetSeq()
	if err != nil {
		return ftcorba.ErrInvalidState
	}
	b.mu.Lock()
	b.n, b.state = n, state
	b.mu.Unlock()
	return nil
}

// newXferCluster is newTestCluster with per-node config control and a
// Blob factory of the given state size registered alongside Counter.
func newXferCluster(t *testing.T, blobSize int, mod func(*Config), addrs ...string) *testCluster {
	t.Helper()
	c := &testCluster{t: t, net: simnet.New(simnet.Config{}), nodes: make(map[string]*Node)}
	for _, a := range addrs {
		ep, err := c.net.Join(a)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Transport:   totem.NewSimnetTransport(ep),
			Totem:       fastTotem(),
			ManagerTick: 10 * time.Millisecond,
		}
		if mod != nil {
			mod(&cfg)
		}
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.RegisterFactory("Counter", func(oid string) ftcorba.Replica { return &counter{} })
		n.RegisterFactory("Blob", func(oid string) ftcorba.Replica { return newBlobReplica(blobSize) })
		c.nodes[a] = n
	}
	c.awaitDomain(addrs)
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Stop()
		}
	})
	return c
}

func ping(t *testing.T, obj *orb.ObjectRef) uint64 {
	t.Helper()
	out, err := obj.Invoke("ping", nil)
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	d := cdr.NewDecoder(out, cdr.BigEndian)
	v, err := d.ReadULongLong()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func createBlobGroup(t *testing.T, c *testCluster, name string, minReplicas int, nodes ...string) {
	t.Helper()
	err := c.nodes[nodes[0]].CreateGroup(replication.GroupSpec{
		Name: name, TypeName: "Blob",
		Props: ftcorba.Properties{
			Style:           ftcorba.Active,
			InitialReplicas: len(nodes),
			MinReplicas:     minReplicas,
		},
		Nodes: nodes,
	}, 10*time.Second)
	if err != nil {
		t.Fatalf("CreateGroup(%s): %v", name, err)
	}
}

// TestChunkedRecoveryLargeState runs the full chunked pipeline: a state
// big enough to split into many chunks streams to a recovering replica,
// which must then carry the live counter forward on its own.
func TestChunkedRecoveryLargeState(t *testing.T) {
	c := newXferCluster(t, 20<<10, func(cfg *Config) {
		cfg.StateChunkBytes = 2048
	}, "n1", "n2")
	createBlobGroup(t, c, "blob", 1, "n1", "n2")
	obj := c.client("n1", "driver", "blob")
	for i := uint64(1); i <= 3; i++ {
		if got := ping(t, obj); got != i {
			t.Fatalf("ping = %d, want %d", got, i)
		}
	}
	if err := c.nodes["n2"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n2"].RecoverReplica("blob", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	st := c.nodes["n1"].Stats()
	if st.StateChunksSent < 10 {
		t.Fatalf("donor sent %d chunks, expected ≥ 10 for a 20 KiB state at 2 KiB/chunk", st.StateChunksSent)
	}
	if st.StateChunkBytes < 20<<10 {
		t.Fatalf("donor counted %d chunk bytes", st.StateChunkBytes)
	}
	// Remove the donor so only the recovered replica answers: the counter
	// continuing proves the assembled state was applied.
	if err := c.nodes["n1"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ping(t, obj); got != 4 {
		t.Fatalf("ping after failover = %d, want 4", got)
	}
}

// TestChunkLossRetransmit drops one streamed chunk on the recovering
// node; the manifest must flag it missing and a retransmit-by-index must
// complete the assembly.
func TestChunkLossRetransmit(t *testing.T) {
	c := newXferCluster(t, 16<<10, func(cfg *Config) {
		cfg.StateChunkBytes = 2048
	}, "n1", "n2")
	createBlobGroup(t, c, "blob", 1, "n1", "n2")
	obj := c.client("n1", "driver", "blob")
	ping(t, obj)
	if err := c.nodes["n2"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	var dropped sync.Once
	var didDrop bool
	c.nodes["n2"].setChunkHook(func(env *replication.Envelope) bool {
		keep := true
		if env.OpID == 1 {
			dropped.Do(func() { keep = false; didDrop = true })
		}
		return keep
	})
	if err := c.nodes["n2"].RecoverReplica("blob", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if !didDrop {
		t.Fatal("hook never dropped a chunk (transfer not chunked?)")
	}
	if st := c.nodes["n2"].Stats(); st.StateRetransmitRequests < 1 {
		t.Fatalf("recovering node sent %d retransmit requests, want ≥ 1", st.StateRetransmitRequests)
	}
	if st := c.nodes["n1"].Stats(); st.StateChunksResent < 1 {
		t.Fatalf("donor resent %d chunks, want ≥ 1", st.StateChunksResent)
	}
	if err := c.nodes["n1"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ping(t, obj); got != 2 {
		t.Fatalf("ping after failover = %d, want 2", got)
	}
}

// TestChunkChecksumMismatch corrupts one streamed chunk in flight; the
// manifest's checksum must reject it and a retransmission must cure it.
func TestChunkChecksumMismatch(t *testing.T) {
	c := newXferCluster(t, 16<<10, func(cfg *Config) {
		cfg.StateChunkBytes = 2048
	}, "n1", "n2")
	createBlobGroup(t, c, "blob", 1, "n1", "n2")
	obj := c.client("n1", "driver", "blob")
	ping(t, obj)
	if err := c.nodes["n2"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	var corrupt sync.Once
	c.nodes["n2"].setChunkHook(func(env *replication.Envelope) bool {
		if env.OpID == 2 {
			corrupt.Do(func() { env.Payload[5] ^= 0xFF })
		}
		return true
	})
	if err := c.nodes["n2"].RecoverReplica("blob", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if st := c.nodes["n2"].Stats(); st.StateChunksRejected < 1 {
		t.Fatalf("rejected %d chunks, want ≥ 1", st.StateChunksRejected)
	}
	if err := c.nodes["n1"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ping(t, obj); got != 2 {
		t.Fatalf("ping after failover = %d, want 2", got)
	}
}

// TestMidTransferRestart starves a transfer of every chunk: the receiver
// must exhaust its retransmit budget, abandon the transfer, remove its
// half-cured replica, and recover cleanly under a fresh transfer id
// launched by the Resource Manager.
func TestMidTransferRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the full retransmit budget (~2s) twice")
	}
	c := newXferCluster(t, 16<<10, func(cfg *Config) {
		cfg.StateChunkBytes = 2048
	}, "n1", "n2")
	// MinReplicas == 2 so the Resource Manager relaunches the replica
	// both after the kill and after the abandoned transfer.
	createBlobGroup(t, c, "blob", 2, "n1", "n2")
	obj := c.client("n1", "driver", "blob")
	ping(t, obj)

	var mu sync.Mutex
	var firstXfer uint64
	c.nodes["n2"].setChunkHook(func(env *replication.Envelope) bool {
		mu.Lock()
		defer mu.Unlock()
		if firstXfer == 0 {
			firstXfer = env.XferID
		}
		return env.XferID != firstXfer // starve the first transfer only
	})
	if err := c.nodes["n2"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Abort takes xferMaxRetries × xferRetryInterval ≈ 2s, then the
	// Resource Manager re-adds and the second transfer flows.
	if err := c.nodes["n2"].AwaitRecovered("blob", "n2", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	starved := firstXfer
	mu.Unlock()
	aborted := false
	for _, ev := range c.nodes["n2"].Events(0, 0) {
		if ev.Type == obs.EventStateAbort && ev.Group == "blob" && ev.XferID == starved {
			aborted = true
		}
	}
	if !aborted {
		t.Fatal("no state-abort event for the starved transfer")
	}
	if err := c.nodes["n1"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ping(t, obj); got != 2 {
		t.Fatalf("ping after failover = %d, want 2", got)
	}
}

// TestAsymmetricNakDropFreshXferRestart reproduces recovery under an
// asymmetric partition: the recovering replica receives the donor's
// chunk stream (one chunk short), but its retransmit requests never
// reach the donor — the NAK direction of the link is dead. The replica
// must not hang half-cured: after the 8×250ms NAK budget it abandons
// the transfer (EventStateAbort), removes its own member so the
// Resource Manager relaunches it, and the second transfer — under a
// fresh xfer id, after the link healed — completes the recovery.
func TestAsymmetricNakDropFreshXferRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the full retransmit budget (~2s)")
	}
	c := newXferCluster(t, 16<<10, func(cfg *Config) {
		cfg.StateChunkBytes = 2048
	}, "n1", "n2")
	createBlobGroup(t, c, "blob", 2, "n1", "n2")
	obj := c.client("n1", "driver", "blob")
	ping(t, obj)

	var mu sync.Mutex
	var firstXfer uint64
	seeFirst := func(env *replication.Envelope) uint64 {
		mu.Lock()
		defer mu.Unlock()
		if firstXfer == 0 && env.Kind == replication.KStateChunk {
			firstXfer = env.XferID
		}
		return firstXfer
	}
	// Receiver side: lose one chunk of the first transfer, so the
	// assembly must NAK for it.
	var chunkDropped bool
	c.nodes["n2"].setChunkHook(func(env *replication.Envelope) bool {
		first := seeFirst(env)
		if env.Kind == replication.KStateChunk && env.XferID == first && env.OpID == 3 {
			mu.Lock()
			defer mu.Unlock()
			if !chunkDropped {
				chunkDropped = true
				return false
			}
		}
		return true
	})
	// Donor side: the first transfer's NAKs are swallowed before the
	// donor can serve them — the asymmetric half of the partition.
	c.nodes["n1"].setChunkHook(func(env *replication.Envelope) bool {
		first := seeFirst(env)
		return !(env.Kind == replication.KStateRetransmit && env.XferID == first)
	})

	if err := c.nodes["n2"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The abort takes xferMaxRetries × xferRetryInterval ≈ 2s; then the
	// Resource Manager re-adds the member and the clean second transfer
	// brings it back.
	if err := c.nodes["n2"].AwaitRecovered("blob", "n2", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	starved := firstXfer
	mu.Unlock()
	if starved == 0 {
		t.Fatal("no transfer was observed")
	}
	naks := 0
	aborted := false
	freshManifest := false
	for _, ev := range c.nodes["n2"].Events(0, 0) {
		if ev.Group != "blob" {
			continue
		}
		switch ev.Type {
		case obs.EventStateNak:
			if ev.XferID == starved {
				naks++
			}
		case obs.EventStateAbort:
			if ev.XferID == starved {
				aborted = true
			}
		case obs.EventSetState:
			if ev.XferID != starved {
				freshManifest = true
			}
		}
	}
	if naks < xferMaxRetries {
		t.Errorf("recorded %d NAKs for the starved transfer, want the full budget of %d", naks, xferMaxRetries)
	}
	if !aborted {
		t.Error("no state-abort event: the half-cured replica hung instead of giving up")
	}
	if !freshManifest {
		t.Error("no manifest under a fresh xfer id: recovery did not restart cleanly")
	}
	// The recovered replica must serve: fail n1 over and ask n2's copy.
	if err := c.nodes["n1"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ping(t, obj); got != 2 {
		t.Fatalf("ping after failover = %d, want 2", got)
	}
}

// setStates lists a node's ordered set-state events for the group.
func setStates(n *Node, group string) []obs.Event {
	var out []obs.Event
	for _, ev := range n.Events(0, 0) {
		if ev.Type == obs.EventSetState && ev.Group == group {
			out = append(out, ev)
		}
	}
	return out
}

// TestStateTransferEverySize: a bundle that fits one chunk takes the one
// state-transfer route there is — one KStateChunk and its KStateManifest —
// whether it cures a recovering active replica or checkpoints a warm or
// cold passive backup, and the ordered set-state event reads the same for
// every size: one per transfer id, at one agreed position, Value the
// encoded bundle's bytes.
func TestStateTransferEverySize(t *testing.T) {
	for _, tc := range []struct {
		name             string
		style            ftcorba.ReplicationStyle
		blob, chunkBytes int
		oneChunk         bool
	}{
		{"active-10B", ftcorba.Active, 10, 0, true},
		{"warm-passive-10B", ftcorba.WarmPassive, 10, 0, true},
		{"cold-passive-10B", ftcorba.ColdPassive, 10, 0, true},
		{"active-20KiB", ftcorba.Active, 20 << 10, 2048, false},
		// The largest state anything in the repository moves: 8 MiB at the
		// default chunk size, far past the bulk lane's per-visit quota.
		{"active-8MiB", ftcorba.Active, 8 << 20, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.blob > 1<<20 {
				t.Skip("megabytes of state under the race detector outlast this test's timeouts")
			}
			c := newXferCluster(t, tc.blob, func(cfg *Config) {
				cfg.StateChunkBytes = tc.chunkBytes
			}, "n1", "n2")
			props := ftcorba.Properties{Style: tc.style, InitialReplicas: 2, MinReplicas: 1}
			if tc.style != ftcorba.Active {
				props.CheckpointInterval = time.Hour // only the count trigger fires
				props.CheckpointEveryN = 3
			}
			if err := c.nodes["n1"].CreateGroup(replication.GroupSpec{
				Name: "blob", TypeName: "Blob", Props: props, Nodes: []string{"n1", "n2"},
			}, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			obj := c.client("n1", "driver", "blob")
			pings, transfers := uint64(3), 1
			for i := uint64(1); i <= pings; i++ {
				if got := ping(t, obj); got != i {
					t.Fatalf("ping = %d, want %d", got, i)
				}
			}
			if tc.style == ftcorba.Active {
				if err := c.nodes["n2"].KillReplica("blob", 10*time.Second); err != nil {
					t.Fatal(err)
				}
				if err := c.nodes["n2"].RecoverReplica("blob", 15*time.Second); err != nil {
					t.Fatal(err)
				}
			} else {
				// Two checkpoints, each triggered by three logged messages.
				transfers = 2
				awaitSetStates(t, c.nodes["n2"], "blob", 1)
				for ; pings < 6; pings++ {
					ping(t, obj)
				}
			}
			awaitSetStates(t, c.nodes["n2"], "blob", transfers)
			awaitSetStates(t, c.nodes["n1"], "blob", transfers)

			// Quiescent now: nothing else captures. Donor and receiver hold
			// the same set-state events, one per transfer.
			donor, rcvr := setStates(c.nodes["n1"], "blob"), setStates(c.nodes["n2"], "blob")
			if len(donor) != transfers || len(rcvr) != transfers {
				t.Fatalf("set-state events: donor %d, receiver %d, want %d each", len(donor), len(rcvr), transfers)
			}
			var bundleBytes uint64
			seen := make(map[uint64]bool)
			for i, ev := range donor {
				if seen[ev.XferID] {
					t.Fatalf("transfer %d has two set-state events", ev.XferID)
				}
				seen[ev.XferID] = true
				if !ev.Ordered || ev.Node != "n1" || ev.Seq != rcvr[i].Seq || ev.XferID != rcvr[i].XferID || ev.Value != rcvr[i].Value {
					t.Fatalf("set-state %d: donor %+v, receiver %+v", i, ev, rcvr[i])
				}
				if tc.oneChunk && ev.Detail != "chunks=1" {
					t.Fatalf("set-state detail = %q, want chunks=1", ev.Detail)
				}
				if ev.Value <= int64(tc.blob) {
					t.Fatalf("set-state value %d is not the encoded bundle size (application state alone is %d bytes)", ev.Value, tc.blob)
				}
				bundleBytes += uint64(ev.Value)
			}
			// Every bundle byte went out as chunk payload, none another way.
			st := c.nodes["n1"].Stats()
			if st.StateChunkBytes != bundleBytes || st.StateChunksResent != 0 {
				t.Fatalf("donor streamed %d chunk bytes (%d resent chunks), set-state events total %d",
					st.StateChunkBytes, st.StateChunksResent, bundleBytes)
			}
			if tc.oneChunk && st.StateChunksSent != uint64(transfers) {
				t.Fatalf("donor sent %d chunks for %d one-chunk transfers", st.StateChunksSent, transfers)
			}
			if !tc.oneChunk && st.StateChunksSent < 10 {
				t.Fatalf("donor sent %d chunks for %d bytes of state", st.StateChunksSent, tc.blob)
			}

			// Only n2's copy answers now: the counter continuing proves the
			// transferred state (and, passive, the log behind it) was applied.
			if err := c.nodes["n1"].KillReplica("blob", 10*time.Second); err != nil {
				t.Fatal(err)
			}
			if tc.style != ftcorba.Active {
				if err := c.nodes["n2"].AwaitPromoted("blob", "n2", 10*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			if got := ping(t, obj); got != pings+1 {
				t.Fatalf("ping after failover = %d, want %d", got, pings+1)
			}
		})
	}
}

// awaitSetStates waits until the node has recorded at least want ordered
// set-state events for the group.
func awaitSetStates(t *testing.T, n *Node, group string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(setStates(n, group)) < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d set-state events for %s, want %d", n.Addr(), len(setStates(n, group)), group, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHostileChunkIndex: a KStateChunk's index comes straight off the wire
// on every node that knows the group. One past the manifest bound must be
// rejected outright (held by index, it once sized a slice), and one just
// inside it held at the cost of one chunk; neither disturbs the transfer
// that follows.
func TestHostileChunkIndex(t *testing.T) {
	c := newXferCluster(t, 10, nil, "n1", "n2")
	createBlobGroup(t, c, "blob", 1, "n1", "n2")
	obj := c.client("n1", "driver", "blob")
	ping(t, obj)
	for _, idx := range []uint32{recovery.MaxChunks, recovery.MaxChunks - 1} {
		c.nodes["n1"].multicast(&replication.Envelope{
			Kind: replication.KStateChunk, Group: "blob", Node: "n1",
			OpID: idx, XferID: 0xBAD, Payload: []byte("stray"),
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, a := range []string{"n1", "n2"} {
		for c.nodes[a].Stats().StateChunksRejected != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("%s rejected %d chunks, want exactly the out-of-range one", a, c.nodes[a].Stats().StateChunksRejected)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if err := c.nodes["n2"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n2"].RecoverReplica("blob", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n1"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ping(t, obj); got != 2 {
		t.Fatalf("ping after failover = %d, want 2", got)
	}
}

// TestCheckpointEveryN drives a warm-passive group whose time-based
// checkpoint interval would never fire within the test; the every-N
// message trigger alone must schedule checkpoints.
func TestCheckpointEveryN(t *testing.T) {
	c := newXferCluster(t, 0, nil, "n1", "n2")
	err := c.nodes["n1"].CreateGroup(replication.GroupSpec{
		Name: "ctr", TypeName: "Counter",
		Props: ftcorba.Properties{
			Style:              ftcorba.WarmPassive,
			InitialReplicas:    2,
			MinReplicas:        1,
			CheckpointInterval: time.Hour, // never fires here
			CheckpointEveryN:   5,
		},
		Nodes: []string{"n1", "n2"},
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	obj := c.client("n1", "driver", "ctr")
	countCkpts := func() int {
		ckpts := 0
		for _, ev := range c.nodes["n2"].Events(0, 0) {
			if ev.Type == obs.EventCheckpoint && ev.Group == "ctr" {
				ckpts++
			}
		}
		return ckpts
	}
	// The count trigger is polled by the manager sweep, so each batch of
	// CheckpointEveryN invocations must be given a few ticks to be noticed
	// before the next batch lands.
	deadline := time.Now().Add(10 * time.Second)
	invoked := 0
	for countCkpts() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d checkpoints after %d invocations with CheckpointEveryN=5",
				countCkpts(), invoked)
		}
		for i := 0; i < 5; i++ {
			add(t, obj, 1)
			invoked++
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The backup's log must have been truncated by those checkpoints.
	logGCs := 0
	for _, ev := range c.nodes["n2"].Events(0, 0) {
		if ev.Type == obs.EventLogGC && ev.Group == "ctr" {
			logGCs++
		}
	}
	if logGCs == 0 {
		t.Fatal("backup log never garbage-collected")
	}
}

// TestStateTransferFromNonRepresentativeDonor recovers the replica on the
// ring representative's node, so the donor (the group's first operational
// member, n2) is not the representative. The old streamer paced itself on
// a counter that only the representative ever increments, so any transfer
// of more than one budget from such a donor stalled for good — and took
// the donor's streamer with it, so the second recovery could not even
// start. The 2-node ring is the smallest on which the donor is not the
// representative.
func TestStateTransferFromNonRepresentativeDonor(t *testing.T) {
	for _, nodes := range [][]string{{"n1", "n2", "n3"}, {"n1", "n2"}} {
		t.Run(strings.Join(nodes, ""), func(t *testing.T) {
			c := newXferCluster(t, 20<<10, func(cfg *Config) {
				cfg.StateChunkBytes = 2048
			}, nodes...)
			createBlobGroup(t, c, "blob", 1, nodes...)
			obj := c.client("n1", "driver", "blob")
			want := uint64(0)
			for round := 1; round <= 2; round++ {
				want++
				if got := ping(t, obj); got != want {
					t.Fatalf("round %d: ping = %d, want %d", round, got, want)
				}
				if err := c.nodes["n1"].KillReplica("blob", 10*time.Second); err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				if err := c.nodes["n1"].RecoverReplica("blob", 15*time.Second); err != nil {
					t.Fatalf("round %d: recovery through donor n2: %v (donor sent %d chunks)",
						round, err, c.nodes["n2"].Stats().StateChunksSent)
				}
				t.Logf("round %d: recovered in %v", round, time.Since(start))
				if sent := c.nodes["n2"].Stats().StateChunksSent; sent < uint64(10*round) {
					t.Fatalf("round %d: donor n2 sent %d chunks, want ≥ %d", round, sent, 10*round)
				}
				if sent := c.nodes["n1"].Stats().StateChunksSent; sent != 0 {
					t.Fatalf("n1 sent %d chunks: it was never the donor", sent)
				}
			}
			// Only the recovered replica is left to answer: the counter
			// going on proves it holds the transferred state.
			for _, nd := range nodes[1:] {
				if err := c.nodes[nd].KillReplica("blob", 10*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			if got := ping(t, obj); got != want+1 {
				t.Fatalf("ping at the recovered replica = %d, want %d", got, want+1)
			}
		})
	}
}
