package core

import (
	"bytes"
	"fmt"
	"slices"
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
		cfg.stateChunkBytes = 2048
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
// node. Nothing asks the donor for that chunk again: the transfer is
// abandoned at its manifest and the whole state is retransmitted under a
// fresh transfer id, which brings the replica back.
func TestChunkLossRetransmit(t *testing.T) {
	recoverThroughBrokenTransfer(t, func(env *replication.Envelope) bool { return env.OpID != 1 }, nil)
}

// TestAsymmetricNakDropFreshXferRestart: the recovering node receives the
// donor's stream one chunk short while the donor's own copy is whole, and
// no request about the gap travels back to the donor — there is none to
// drop. The fault shows on the recovering node alone: it abandons the
// transfer at the manifest, the donor records no abort and streams each
// transfer exactly once, and the fresh transfer completes the recovery.
func TestAsymmetricNakDropFreshXferRestart(t *testing.T) {
	recoverThroughBrokenTransfer(t, func(env *replication.Envelope) bool { return env.OpID != 3 },
		func(c *testCluster, abort obs.Event) {
			if !strings.HasPrefix(abort.Detail, "donor=n1 cure=true:") {
				t.Fatalf("abort detail %q, want the cure from donor n1", abort.Detail)
			}
			donor := c.nodes["n1"]
			awaitSetStates(t, donor, "blob", 2)
			chunks := uint64(0)
			for _, ev := range setStates(donor, "blob") {
				var k uint64
				if _, err := fmt.Sscanf(ev.Detail, "chunks=%d", &k); err != nil {
					t.Fatalf("set-state detail %q: %v", ev.Detail, err)
				}
				chunks += k
			}
			if n := len(setStates(donor, "blob")); n != 2 {
				t.Fatalf("donor ran %d transfers, want the broken one and its fresh restart", n)
			}
			if sent := donor.Stats().StateChunksSent; sent != chunks {
				t.Fatalf("donor sent %d chunks, its two streams hold %d: a chunk went out twice", sent, chunks)
			}
			for _, ev := range donor.Events(0, 0) {
				if ev.Type == obs.EventStateAbort {
					t.Fatalf("donor abandoned a transfer: %s", ev.Detail)
				}
			}
		})
}

// TestBrokenTransferAbandonedAtManifest: a transfer whose chunk stream
// reached the recovering node corrupt, or not at all, is abandoned at its
// manifest's position like one that lost a chunk.
func TestBrokenTransferAbandonedAtManifest(t *testing.T) {
	for _, tc := range []struct {
		name string
		keep func(env *replication.Envelope) bool // the broken transfer's chunk filter
	}{
		{"corrupt-chunk", func(env *replication.Envelope) bool {
			if env.OpID == 2 {
				env.Payload[5] ^= 0xFF
			}
			return true
		}},
		{"no-chunks", func(*replication.Envelope) bool { return false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recoverThroughBrokenTransfer(t, tc.keep, nil)
		})
	}
}

// recoverThroughBrokenTransfer breaks the first transfer that reaches n2 —
// each of its chunks passes through keep — after n2's replica of a blob
// group is killed. The broken transfer must be abandoned at its manifest's
// position, the state-abort stamped with the seq of that transfer's
// set-state. The half-cured replica removes itself, the Resource Manager
// relaunches it (MinReplicas 2) under a fresh transfer id, and that
// transfer brings it back: check, if not nil, inspects the cluster then,
// and the recovered replica must serve on its own after n1's fails over.
func recoverThroughBrokenTransfer(t *testing.T, keep func(*replication.Envelope) bool, check func(c *testCluster, abort obs.Event)) {
	t.Helper()
	c := newXferCluster(t, 16<<10, func(cfg *Config) {
		cfg.stateChunkBytes = 2048
	}, "n1", "n2")
	createBlobGroup(t, c, "blob", 2, "n1", "n2")
	obj := c.client("n1", "driver", "blob")
	ping(t, obj)

	var mu sync.Mutex
	var broken uint64 // the first transfer's id
	c.nodes["n2"].setChunkHook(func(env *replication.Envelope) bool {
		mu.Lock()
		defer mu.Unlock()
		if broken == 0 {
			broken = env.XferID
		}
		return env.XferID != broken || keep(env)
	})
	if err := c.nodes["n2"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n2"].AwaitRecovered("blob", "n2", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	var abort, setState obs.Event
	fresh := false
	for _, ev := range c.nodes["n2"].Events(0, 0) {
		switch {
		case ev.Group != "blob":
		case ev.Type == obs.EventStateAbort:
			abort = ev
		case ev.Type == obs.EventSetState && abort.XferID == 0:
			setState = ev
		case ev.Type == obs.EventSetState && ev.XferID != abort.XferID:
			fresh = true
		}
	}
	mu.Lock()
	first := broken
	mu.Unlock()
	switch {
	case abort.XferID == 0 || abort.XferID != setState.XferID:
		t.Fatalf("abort %+v after set-state %+v", abort, setState)
	case abort.XferID != first:
		t.Fatalf("abandoned transfer %d, the broken one is %d", abort.XferID, first)
	case abort.Seq != setState.Seq:
		t.Fatalf("abandoned at seq %d, its set-state is at %d", abort.Seq, setState.Seq)
	case !fresh:
		t.Fatal("no set-state under a fresh transfer id after the abort")
	}
	t.Logf("abandoned at its set-state (seq %d): %s", abort.Seq, abort.Detail)
	if check != nil {
		check(c, abort)
	}
	if err := c.nodes["n1"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ping(t, obj); got != 2 {
		t.Fatalf("ping after failover = %d, want 2", got)
	}
}

// TestDonorStopsBeforeItsManifest: a donor whose processor stops partway
// through its chunk stream never sends the manifest. The view that drops
// its processor drops its open transfer on every node with it — no timer
// ages it out — and the next donor's fresh transfer recovers the replica.
func TestDonorStopsBeforeItsManifest(t *testing.T) {
	c := newXferCluster(t, 1<<20, func(cfg *Config) {
		cfg.stateChunkBytes = 2048
	}, "n1", "n2", "n3")
	createBlobGroup(t, c, "blob", 1, "n1", "n2", "n3")
	obj := c.client("n2", "driver", "blob")
	ping(t, obj)
	if err := c.nodes["n3"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	midStream := make(chan struct{})
	var once sync.Once
	c.nodes["n3"].setChunkHook(func(env *replication.Envelope) bool {
		if env.Node == "n1" && env.OpID == 4 {
			once.Do(func() { close(midStream) })
		}
		return true
	})
	n2, n3 := c.nodes["n2"], c.nodes["n3"]
	recovered := make(chan error, 1)
	go func() { recovered <- n3.RecoverReplica("blob", 30*time.Second) }()
	<-midStream
	open := func(n *Node) (x *inboundXfer) {
		n.onLoop(func() { x = n.inXfers["n1"] })
		return x
	}
	if open(n3) == nil {
		t.Fatal("no transfer from n1 open at n3 mid-stream")
	}
	c.crashNode("n1")
	for _, n := range []*Node{n2, n3} {
		if err := n.AwaitView([]string{"n2", "n3"}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if x := open(n); x != nil {
			t.Fatalf("%s still holds n1's transfer %d in the view without n1", n.Addr(), x.xferID)
		}
	}
	if err := <-recovered; err != nil {
		t.Fatalf("recovery after the donor stopped: %v", err)
	}
	for _, ev := range setStates(n3, "blob") {
		if ev.Node != "n2" {
			t.Fatalf("set-state from %s: the stopped donor's manifest got out", ev.Node)
		}
	}
	if err := n2.KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ping(t, obj); got != 2 {
		t.Fatalf("ping at the recovered replica = %d, want 2", got)
	}
}

// heldDonor is a counter whose get_state waits until the test opens its
// gate: a donor held inside its capture. entered closes at the first call.
type heldDonor struct {
	counter
	entered, gate chan struct{}
	once          sync.Once
}

func (g *heldDonor) GetState() (anyval.Any, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.counter.GetState()
}

// inside reports whether get_state has been called.
func (g *heldDonor) inside() bool {
	select {
	case <-g.entered:
		return true
	default:
		return false
	}
}

// newHeldDonorCluster starts nodes with the audit off (its digests would
// call get_state too) and the Counter factory on n1 replaced by a held
// donor; open lets its capture go on, and the test's end opens it anyway.
func newHeldDonorCluster(t *testing.T, addrs ...string) (c *testCluster, donor *heldDonor, open func()) {
	t.Helper()
	c = newXferCluster(t, 0, func(cfg *Config) { cfg.AuditInterval = -1 }, addrs...)
	donor = &heldDonor{entered: make(chan struct{}), gate: make(chan struct{})}
	open = sync.OnceFunc(func() { close(donor.gate) })
	t.Cleanup(open)
	c.nodes["n1"].RegisterFactory("Counter", func(string) ftcorba.Replica { return donor })
	return c, donor, open
}

// checkpointNow multicasts a checkpoint marker for group from n, as n's
// manager sweep does when n is the primary and the group's checkpoint
// interval has run out.
func checkpointNow(n *Node, group string) {
	n.multicast(&replication.Envelope{Kind: replication.KCheckpoint, Group: group, XferID: n.nextXfer()})
}

// waitUntil polls cond until it holds, for at most ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// queued reports whether node n's replica of group has anything waiting
// in its dispatch queue: a recovering replica holds what is ordered after
// its add, a held donor what is ordered after its capture.
func queued(n *Node, group string) bool {
	waiting := 0
	n.onLoop(func() {
		if h := n.hosts[group]; h != nil {
			waiting = h.q.Len()
		}
	})
	return waiting > 0
}

// hasMember reports whether n's table lists node as a member of group.
func hasMember(n *Node, group, node string) bool {
	members, _ := n.GroupMembers(group)
	return slices.ContainsFunc(members, func(m replication.Member) bool { return m.Node == node })
}

// addAsync invokes add on a goroutine; the channel carries the answer, or
// -1 if the invocation failed.
func addAsync(obj *orb.ObjectRef, delta int64) <-chan int64 {
	answer := make(chan int64, 1)
	go func() {
		v, err := tryAdd(obj, delta)
		if err != nil {
			v = -1
		}
		answer <- v
	}()
	return answer
}

// TestTransferCuresOnlyTheMemberWhoseAddNamedIt: two replicas are added
// while the donor is inside the first one's capture, and a write is ordered
// between the two adds. The first capture predates the write and the
// second replica's queue starts after it, so only the second capture,
// taken at the second add, covers the second replica: each manifest cures
// the member whose add named its transfer, and all three replicas hold the
// write.
func TestTransferCuresOnlyTheMemberWhoseAddNamedIt(t *testing.T) {
	c, donor, open := newHeldDonorCluster(t, "n1", "n2", "n3", "n4")
	var mu sync.Mutex
	replicas := map[string]*counter{"n1": &donor.counter}
	for _, a := range []string{"n2", "n3"} {
		c.nodes[a].RegisterFactory("Counter", func(string) ftcorba.Replica {
			r := &counter{}
			mu.Lock()
			replicas[a] = r
			mu.Unlock()
			return r
		})
	}
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 1)
	obj := c.client("n4", "driver", "ctr")
	add(t, obj, 5)
	for _, a := range []string{"n2", "n3"} {
		if err := c.nodes[a].KillReplica("ctr", 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	recovered := make(chan error, 2)
	go func() { recovered <- c.nodes["n2"].RecoverReplica("ctr", 20*time.Second) }()
	waitUntil(t, "n1 inside get_state", donor.inside)
	wrote := addAsync(obj, 7)
	waitUntil(t, "the write in n2's held queue", func() bool { return queued(c.nodes["n2"], "ctr") })
	go func() { recovered <- c.nodes["n3"].RecoverReplica("ctr", 20*time.Second) }()
	waitUntil(t, "n3's add at n1", func() bool { return hasMember(c.nodes["n1"], "ctr", "n3") })
	open()

	if v := <-wrote; v != 12 {
		t.Fatalf("add 7 answered %d, want 12", v)
	}
	for range 2 {
		if err := <-recovered; err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	held := make(map[string]int64)
	for a, r := range replicas {
		r.mu.Lock()
		held[a] = r.v
		r.mu.Unlock()
	}
	mu.Unlock()
	if held["n1"] != 12 || held["n2"] != 12 || held["n3"] != 12 {
		t.Fatalf("replicas hold %v, want 12 everywhere", held)
	}
	if got := get(t, obj); got != 12 {
		t.Fatalf("get = %d, want 12", got)
	}
	// The donor never changed, so it captured once per add. Once its
	// replica has executed a write ordered after both manifests, any
	// capture those manifests queued has run too.
	add(t, obj, 1)
	waitUntil(t, "n1 executing add 1", func() bool {
		donor.mu.Lock()
		defer donor.mu.Unlock()
		return donor.v == 13
	})
	captures := 0
	for _, ev := range c.nodes["n1"].Events(0, 0) {
		if ev.Type == obs.EventGetState && ev.Group == "ctr" {
			captures++
		}
	}
	if captures != 2 {
		t.Fatalf("n1 recorded %d get-state events, want 2: one per add", captures)
	}
}

// TestTransferRecapturedAfterDonorDiesIsNoCheckpoint: a warm-passive
// primary dies inside its capture for a recovering backup, after a write
// was ordered. The promoted backup executes the write from its log and
// captures again under the recovering member's transfer id, later in the
// order than that member's add. The other backup must not take that
// capture as a checkpoint of the add's position — it would keep the write
// in its log on top of a state that holds it — so when it is promoted in
// turn, the write is applied once.
func TestTransferRecapturedAfterDonorDiesIsNoCheckpoint(t *testing.T) {
	c, donor, _ := newHeldDonorCluster(t, "n1", "n2", "n3", "n4", "n5")
	err := c.nodes["n1"].CreateGroup(replication.GroupSpec{
		Name: "ctr", TypeName: "Counter", Nodes: []string{"n1", "n2", "n3"},
		Props: ftcorba.Properties{
			Style: ftcorba.WarmPassive, InitialReplicas: 3, MinReplicas: 1,
			CheckpointInterval: time.Hour, // no checkpoint but the recovery's
		},
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	obj := c.client("n5", "driver", "ctr")
	add(t, obj, 5)

	recovered := make(chan error, 1)
	go func() { recovered <- c.nodes["n4"].RecoverReplica("ctr", 20*time.Second) }()
	waitUntil(t, "n1 inside get_state", donor.inside)
	wrote := addAsync(obj, 7)
	waitUntil(t, "the write in n4's held queue", func() bool { return queued(c.nodes["n4"], "ctr") })
	c.crashNode("n1")

	if v := <-wrote; v != 12 {
		t.Fatalf("add 7 answered %d, want 12", v)
	}
	if err := <-recovered; err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n2"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n3"].AwaitPromoted("ctr", "n3", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := get(t, obj); got != 12 {
		t.Fatalf("get after n3's promotion = %d, want 12", got)
	}
}

// TestTransferCheckpointCuresNobody: a warm-passive primary is inside a
// checkpoint's capture when a write and then a new backup's add are
// ordered. The checkpoint predates both, so its manifest cures nobody: the
// new backup waits for the capture its own add triggered, and holds the
// write when it is the one left to promote.
func TestTransferCheckpointCuresNobody(t *testing.T) {
	c, donor, open := newHeldDonorCluster(t, "n1", "n2", "n3", "n4")
	err := c.nodes["n1"].CreateGroup(replication.GroupSpec{
		Name: "ctr", TypeName: "Counter", Nodes: []string{"n1", "n2"},
		Props: ftcorba.Properties{
			Style: ftcorba.WarmPassive, InitialReplicas: 2, MinReplicas: 1,
			// One checkpoint, the one the test marks after the second write.
			CheckpointInterval: time.Hour,
		},
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	obj := c.client("n4", "driver", "ctr")
	add(t, obj, 5)
	add(t, obj, 1)
	checkpointNow(c.nodes["n1"], "ctr")
	waitUntil(t, "n1 inside the checkpoint's get_state", donor.inside)
	wrote := addAsync(obj, 7)
	waitUntil(t, "the write queued behind n1's capture", func() bool { return queued(c.nodes["n1"], "ctr") })
	recovered := make(chan error, 1)
	go func() { recovered <- c.nodes["n3"].RecoverReplica("ctr", 20*time.Second) }()
	waitUntil(t, "n3's add at n1", func() bool { return hasMember(c.nodes["n1"], "ctr", "n3") })
	open()

	if v := <-wrote; v != 13 {
		t.Fatalf("add 7 answered %d, want 13", v)
	}
	if err := <-recovered; err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"n1", "n2"} {
		if err := c.nodes[a].KillReplica("ctr", 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.nodes["n3"].AwaitPromoted("ctr", "n3", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := get(t, obj); got != 13 {
		t.Fatalf("get at the new backup, promoted = %d, want 13", got)
	}
}

// TestDonorOfTwoGroupsAtOnce: a node that donates to two groups at once —
// two dispatchers capturing side by side — keeps each transfer's chunks and
// manifest together in its bulk lane, so a receiver, which holds one open
// transfer per donor, assembles both and abandons neither. (The captures
// overlap under the race detector; unhurried, the first stream is usually
// submitted before the second capture ends.)
func TestDonorOfTwoGroupsAtOnce(t *testing.T) {
	c := newXferCluster(t, 256<<10, func(cfg *Config) {
		cfg.stateChunkBytes = 2048
	}, "n1", "n2")
	groups := []string{"a", "b"}
	objs := make(map[string]*orb.ObjectRef)
	for _, g := range groups {
		createBlobGroup(t, c, g, 1, "n1", "n2")
		objs[g] = c.client("n1", "driver-"+g, g)
		ping(t, objs[g])
		if err := c.nodes["n2"].KillReplica(g, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	recovered := make(chan error, len(groups))
	for _, g := range groups {
		go func() { recovered <- c.nodes["n2"].RecoverReplica(g, 15*time.Second) }()
	}
	for range groups {
		if err := <-recovered; err != nil {
			t.Fatalf("recovering two groups from one donor: %v", err)
		}
	}
	for _, ev := range c.nodes["n2"].Events(0, 0) {
		if ev.Type == obs.EventStateAbort {
			t.Fatalf("transfer abandoned: %s", ev.Detail)
		}
	}
	for _, g := range groups {
		if err := c.nodes["n1"].KillReplica(g, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if got := ping(t, objs[g]); got != 2 {
			t.Fatalf("%s: ping at the recovered replica = %d, want 2", g, got)
		}
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
				cfg.stateChunkBytes = tc.chunkBytes
			}, "n1", "n2")
			props := ftcorba.Properties{Style: tc.style, InitialReplicas: 2, MinReplicas: 1}
			if tc.style != ftcorba.Active {
				props.CheckpointInterval = time.Hour // only the test marks checkpoints
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
				// Two checkpoints, each marked after three logged messages.
				transfers = 2
				checkpointNow(c.nodes["n1"], "blob")
				awaitSetStates(t, c.nodes["n2"], "blob", 1)
				for ; pings < 6; pings++ {
					ping(t, obj)
				}
				checkpointNow(c.nodes["n1"], "blob")
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
			if st.StateChunkBytes != bundleBytes {
				t.Fatalf("donor streamed %d chunk bytes, set-state events total %d",
					st.StateChunkBytes, bundleBytes)
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
// on every node that knows the group. A transfer opening past index 0 is
// broken from its first chunk: that one is refused outright (held by index,
// one past the manifest bound once sized a slice), and so is every chunk of
// the transfer after it. Neither disturbs the transfer that follows.
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
		for c.nodes[a].Stats().StateChunksRejected != 2 {
			if time.Now().After(deadline) {
				t.Fatalf("%s rejected %d chunks, want both strays", a, c.nodes[a].Stats().StateChunksRejected)
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

// TestOnlyAColdBackupKeepsCheckpointBytes: a checkpoint's bytes are read
// back only by a cold backup's promotion. A warm backup keeps none, since
// its instance holds the state; a cold backup keeps the verified bytes the
// donor encoded, not a re-encoding of the bundle decoded from them.
func TestOnlyAColdBackupKeepsCheckpointBytes(t *testing.T) {
	for _, style := range []ftcorba.ReplicationStyle{ftcorba.WarmPassive, ftcorba.ColdPassive} {
		t.Run(style.String(), func(t *testing.T) {
			c := newXferCluster(t, 0, nil, "n1", "n2")
			var mu sync.Mutex
			var streamed []byte // the donor's encoding, as its chunks carry it
			c.nodes["n2"].setChunkHook(func(env *replication.Envelope) bool {
				mu.Lock()
				streamed = append(streamed, env.Payload...)
				mu.Unlock()
				return true
			})
			err := c.nodes["n1"].CreateGroup(replication.GroupSpec{
				Name: "ctr", TypeName: "Counter", Nodes: []string{"n1", "n2"},
				Props: ftcorba.Properties{
					Style: style, InitialReplicas: 2, MinReplicas: 1, CheckpointInterval: time.Hour,
				},
			}, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			obj := c.client("n1", "driver", "ctr")
			add(t, obj, 5)
			checkpointNow(c.nodes["n1"], "ctr")
			// The backup's dispatcher records the log GC after truncating,
			// and nothing touches its log after that.
			waitUntil(t, "n2's log GC", func() bool { return hasEvent(c.nodes["n2"], obs.EventLogGC, "ctr", "") })
			var log *recovery.Log
			c.nodes["n2"].onLoop(func() { log = c.nodes["n2"].hosts["ctr"].log })
			raw, ok := log.Checkpoint()
			mu.Lock()
			defer mu.Unlock()
			switch {
			case style == ftcorba.WarmPassive && (ok || len(raw) > 0):
				t.Fatalf("the warm backup keeps %d checkpoint bytes", len(raw))
			case style == ftcorba.ColdPassive && (!ok || !bytes.Equal(raw, streamed)):
				t.Fatalf("the cold backup keeps %d bytes (ok=%t), not the %d the donor streamed", len(raw), ok, len(streamed))
			case len(streamed) == 0:
				t.Fatal("the donor streamed nothing")
			}
		})
	}
}

// TestMarksDueAtTheirInterval: a primary's node schedules its audit and
// checkpoint marks per group, each a full interval after the first sweep
// that finds it primary and then an interval after the last, and starts
// over when it has stopped being primary in between.
func TestMarksDueAtTheirInterval(t *testing.T) {
	n := &Node{marksDue: make(map[markKey]time.Time)}
	ckpt, audit := markKey{replication.KCheckpoint, "g"}, markKey{replication.KAudit, "g"}
	const interval = 100 * time.Millisecond
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for i, step := range []struct {
		key           markKey
		ms            int
		entitled, due bool
	}{
		{ckpt, 0, true, false}, // the first sweep as primary: a full interval first
		{ckpt, 50, true, false},
		{ckpt, 100, true, false},
		{audit, 100, true, false}, // another kind keeps a schedule of its own
		{ckpt, 101, true, true},
		{ckpt, 150, true, false},
		{ckpt, 202, true, true},
		{audit, 201, true, true},
		{ckpt, 250, false, false}, // no longer primary: the schedule is forgotten
		{ckpt, 400, true, false},  // primary again: a full interval first
		{ckpt, 450, true, false},
		{ckpt, 501, true, true},
	} {
		if got := n.markDue(step.key, step.entitled, interval, at(step.ms)); got != step.due {
			t.Fatalf("step %d (%v at %d ms, entitled %t): due = %t, want %t",
				i, step.key.kind, step.ms, step.entitled, got, step.due)
		}
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
				cfg.stateChunkBytes = 2048
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
