package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"eternal/internal/anyval"
	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
	"eternal/internal/orb"
	"eternal/internal/replication"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// counter is the test Replica: a deterministic counter with add/get.
type counter struct {
	mu sync.Mutex
	v  int64
}

func (c *counter) Invoke(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch op {
	case "add":
		d := cdr.NewDecoder(args, order)
		delta, err := d.ReadLongLong()
		if err != nil {
			return nil, orb.BadOperation()
		}
		c.v += delta
		fallthrough
	case "get":
		e := cdr.NewEncoder(order)
		e.WriteLongLong(c.v)
		return e.Bytes(), nil
	default:
		return nil, orb.BadOperation()
	}
}

func (c *counter) GetState() (anyval.Any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return anyval.FromLongLong(c.v), nil
}

func (c *counter) SetState(st anyval.Any) error {
	v, ok := st.Value.(int64)
	if !ok {
		return ftcorba.ErrInvalidState
	}
	c.mu.Lock()
	c.v = v
	c.mu.Unlock()
	return nil
}

// testCluster is an in-process Eternal domain over a simulated LAN.
type testCluster struct {
	t     *testing.T
	net   *simnet.Network
	nodes map[string]*Node
}

func fastTotem() totem.Config {
	return totem.Config{
		TokenLossTimeout: 100 * time.Millisecond,
		JoinInterval:     10 * time.Millisecond,
		StableFor:        20 * time.Millisecond,
		Tick:             time.Millisecond,
	}
}

func newTestCluster(t *testing.T, netCfg simnet.Config, addrs ...string) *testCluster {
	t.Helper()
	c := &testCluster{t: t, net: simnet.New(netCfg), nodes: make(map[string]*Node)}
	for _, a := range addrs {
		c.addNode(a)
	}
	c.awaitDomain(addrs)
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Stop()
		}
	})
	return c
}

// awaitDomain waits until every node is in one view with all the others —
// nodes that formed rings of their own on the way re-synchronize at the
// merge — and has the group table.
func (c *testCluster) awaitDomain(addrs []string) {
	c.t.Helper()
	for _, a := range addrs {
		if err := c.nodes[a].AwaitView(addrs, 10*time.Second); err != nil {
			c.t.Fatalf("%s: AwaitView: %v", a, err)
		}
	}
	for _, a := range addrs {
		if err := c.nodes[a].AwaitSynced(10 * time.Second); err != nil {
			c.t.Fatalf("%s: AwaitSynced: %v", a, err)
		}
	}
}

func (c *testCluster) addNode(addr string) *Node {
	c.t.Helper()
	ep, err := c.net.Join(addr)
	if err != nil {
		c.t.Fatal(err)
	}
	n, err := Start(Config{
		Transport:   totem.NewSimnetTransport(ep),
		Totem:       fastTotem(),
		ManagerTick: 10 * time.Millisecond,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	n.RegisterFactory("Counter", func(oid string) ftcorba.Replica { return &counter{} })
	c.nodes[addr] = n
	return n
}

func (c *testCluster) crashNode(addr string) {
	c.t.Helper()
	n := c.nodes[addr]
	delete(c.nodes, addr)
	n.Stop()
}

// createGroup deploys a Counter group and returns a connected client stub.
func (c *testCluster) createGroup(name string, style ftcorba.ReplicationStyle, nodes []string, minReplicas int) {
	c.t.Helper()
	props := ftcorba.Properties{
		Style:           style,
		InitialReplicas: len(nodes),
		MinReplicas:     minReplicas,
	}
	if style != ftcorba.Active {
		props.CheckpointInterval = 100 * time.Millisecond
	}
	err := c.nodes[nodes[0]].CreateGroup(replication.GroupSpec{
		Name: name, TypeName: "Counter", Props: props, Nodes: nodes,
	}, 10*time.Second)
	if err != nil {
		c.t.Fatalf("CreateGroup(%s): %v", name, err)
	}
}

// client builds an intercepted client stub for the group from the given
// node.
func (c *testCluster) client(nodeAddr, entity, group string) *orb.ObjectRef {
	c.t.Helper()
	n := c.nodes[nodeAddr]
	if err := n.AwaitGroup(group, 10*time.Second); err != nil {
		c.t.Fatalf("AwaitGroup(%s) on %s: %v", group, nodeAddr, err)
	}
	o := n.ClientORB(entity, orb.Options{RequestTimeout: 15 * time.Second})
	c.t.Cleanup(o.Close)
	ref, err := n.GroupIOR(group)
	if err != nil {
		c.t.Fatal(err)
	}
	obj, err := o.Object(ref)
	if err != nil {
		c.t.Fatal(err)
	}
	return obj
}

func add(t *testing.T, obj *orb.ObjectRef, delta int64) int64 {
	t.Helper()
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteLongLong(delta)
	out, err := obj.Invoke("add", e.Bytes())
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	d := cdr.NewDecoder(out, cdr.BigEndian)
	v, err := d.ReadLongLong()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func get(t *testing.T, obj *orb.ObjectRef) int64 {
	t.Helper()
	out, err := obj.Invoke("get", nil)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	d := cdr.NewDecoder(out, cdr.BigEndian)
	v, _ := d.ReadLongLong()
	return v
}

func TestActiveReplicationBasicInvocation(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 1)
	obj := c.client("n1", "driver", "ctr")
	for i := int64(1); i <= 10; i++ {
		if got := add(t, obj, 1); got != i {
			t.Fatalf("add #%d = %d", i, got)
		}
	}
	if got := get(t, obj); got != 10 {
		t.Fatalf("get = %d", got)
	}
}

func TestActiveReplicaKillServiceContinues(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 1)
	obj := c.client("n1", "driver", "ctr")
	add(t, obj, 5)
	// Kill the replica on n2; the others mask the failure (paper §3.1).
	if err := c.nodes["n2"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := add(t, obj, 5); got != 10 {
		t.Fatalf("after kill: %d", got)
	}
}

func TestActiveRecoveryTransfersState(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 1)
	obj := c.client("n1", "driver", "ctr")
	add(t, obj, 42)
	if err := c.nodes["n2"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	add(t, obj, 1)
	// Re-launch on n2: Figure 5 state transfer.
	if err := c.nodes["n2"].RecoverReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Verify the recovered replica carries the full state: kill the OTHER
	// two replicas so only the recovered one remains, then invoke.
	if err := c.nodes["n1"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n3"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := add(t, obj, 7); got != 50 {
		t.Fatalf("recovered replica state = %d, want 50", got)
	}
}

func TestRecoveryUnderLoad(t *testing.T) {
	// Figure 5's whole point: recovery is concurrent with normal
	// operation; invocations arriving during the transfer are enqueued at
	// the new replica and replayed, and nothing is lost or duplicated.
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 1)
	obj := c.client("n1", "driver", "ctr")
	if err := c.nodes["n2"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	const total = 60
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			add(t, obj, 1)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the stream start
	if err := c.nodes["n2"].RecoverReplica("ctr", 20*time.Second); err != nil {
		t.Fatal(err)
	}
	<-done
	// Only the recovered replica answers now.
	c.nodes["n1"].KillReplica("ctr", 10*time.Second)
	c.nodes["n3"].KillReplica("ctr", 10*time.Second)
	if got := get(t, obj); got != total {
		t.Fatalf("counter after recovery under load = %d, want %d", got, total)
	}
}

func TestWarmPassivePrimaryFailover(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	c.createGroup("ctr", ftcorba.WarmPassive, []string{"n1", "n2", "n3"}, 2)
	obj := c.client("n3", "driver", "ctr")
	for i := 0; i < 10; i++ {
		add(t, obj, 1)
	}
	// Let at least one checkpoint happen (interval 100ms).
	time.Sleep(250 * time.Millisecond)
	for i := 0; i < 5; i++ {
		add(t, obj, 1)
	}
	// Kill the primary's replica; n2 must be promoted and replay its log.
	if err := c.nodes["n1"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n2"].AwaitPromoted("ctr", "n2", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := get(t, obj); got != 15 {
		t.Fatalf("after failover = %d, want 15", got)
	}
	if got := add(t, obj, 1); got != 16 {
		t.Fatalf("new primary add = %d, want 16", got)
	}
}

func TestColdPassivePromotionFromLog(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	c.createGroup("ctr", ftcorba.ColdPassive, []string{"n1", "n2"}, 1)
	obj := c.client("n2", "driver", "ctr")
	for i := 0; i < 8; i++ {
		add(t, obj, 2)
	}
	time.Sleep(250 * time.Millisecond) // at least one checkpoint
	for i := 0; i < 3; i++ {
		add(t, obj, 2)
	}
	// Kill the primary. n2 holds only a log; promotion must instantiate
	// the replica, apply the checkpoint, and replay the logged messages.
	if err := c.nodes["n1"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n2"].AwaitPromoted("ctr", "n2", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := get(t, obj); got != 22 {
		t.Fatalf("after cold promotion = %d, want 22", got)
	}
}

func TestNodeCrashTriggersFailover(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	c.createGroup("ctr", ftcorba.WarmPassive, []string{"n1", "n2"}, 1)
	obj := c.client("n3", "driver", "ctr")
	add(t, obj, 9)
	time.Sleep(250 * time.Millisecond) // checkpoint
	// Crash the whole primary node (no graceful removal).
	c.crashNode("n1")
	if err := c.nodes["n2"].AwaitPromoted("ctr", "n2", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := get(t, obj); got != 9 {
		t.Fatalf("after node crash = %d, want 9", got)
	}
}

func TestResourceManagerMaintainsMinReplicas(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 3)
	obj := c.client("n1", "driver", "ctr")
	add(t, obj, 1)
	// Killing a replica drops the group below MinReplicas; the Resource
	// Manager must re-launch it (on the same node, per placement).
	if err := c.nodes["n2"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// n2's own recovered signal: n1 sees the reinstatement at the same
	// position in the order, but n2's loop may be deliveries behind n1's —
	// and n2's host table is what the next line reads.
	if err := c.nodes["n2"].AwaitRecovered("ctr", "n2", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.nodes["n2"].HostsReplica("ctr") {
		t.Fatal("n2 must host the re-launched replica")
	}
	if got := add(t, obj, 1); got != 2 {
		t.Fatalf("after auto-recovery = %d", got)
	}
}

// TestClientOnDifferentNodeThanReplicas: requests from a node that hosts
// no replica leave every reply urgent — nobody's copy is "the one next to
// the client" — so an invocation takes token hops, not ticks. The Tick is
// made long enough for the difference to show.
func TestClientOnDifferentNodeThanReplicas(t *testing.T) {
	const tick = 20 * time.Millisecond
	c := newXferCluster(t, 0, func(cfg *Config) {
		cfg.Totem.Tick = tick
		cfg.Totem.TokenLossTimeout = 100 * tick
	}, "n1", "n2", "n3", "n4")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2"}, 1)
	obj := c.client("n4", "remote-driver", "ctr")
	if got := add(t, obj, 3); got != 3 {
		t.Fatalf("got %d", got)
	}
	const calls = 30
	took := make([]time.Duration, calls)
	for i := range took {
		start := time.Now()
		add(t, obj, 1)
		took[i] = time.Since(start)
	}
	slices.Sort(took)
	if median := took[calls/2]; median > tick/2 {
		t.Fatalf("median invocation %v with a %v Tick: replies waited out a tick", median, tick)
	}
	for _, nd := range []string{"n1", "n2"} {
		if got := c.nodes[nd].Stats().LazyReplies; got != 0 {
			t.Fatalf("%s submitted %d lazy replies to a client whose node hosts no replica", nd, got)
		}
	}
}

func TestTwoClientsDistinctConnections(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2"}, 1)
	a := c.client("n1", "alice", "ctr")
	b := c.client("n2", "bob", "ctr")
	add(t, a, 1)
	add(t, b, 1)
	if got := get(t, a); got != 2 {
		t.Fatalf("a sees %d", got)
	}
	if got := get(t, b); got != 2 {
		t.Fatalf("b sees %d", got)
	}
}

func TestGroupIORCarriesFTGroup(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	c.createGroup("ctr", ftcorba.WarmPassive, []string{"n1", "n2"}, 1)
	ref, err := c.nodes["n1"].GroupIOR("ctr")
	if err != nil {
		t.Fatal(err)
	}
	gi := ref.GroupInfo()
	if gi == nil || gi.FTDomainID != "eternal-go" {
		t.Fatalf("group info = %+v", gi)
	}
	if len(ref.Profiles) != 2 {
		t.Fatalf("profiles = %d", len(ref.Profiles))
	}
	if _, err := c.nodes["n1"].GroupIOR("ghost"); err == nil {
		t.Fatal("expected error for unknown group")
	}
}

func TestLateJoiningNodeSyncsTable(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2"}, 1)
	obj := c.client("n1", "driver", "ctr")
	add(t, obj, 4)
	// A new node joins the established domain.
	n3 := c.addNode("n3")
	if err := n3.AwaitSynced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// It knows the group and can recover a replica onto itself.
	if err := n3.RecoverReplica("ctr", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	// Only n3's replica left: state must be there.
	c.nodes["n1"].KillReplica("ctr", 10*time.Second)
	c.nodes["n2"].KillReplica("ctr", 10*time.Second)
	if got := get(t, obj); got != 4 {
		t.Fatalf("n3 replica state = %d, want 4", got)
	}
}

func TestRepeatedKillRecoverCycles(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2"}, 1)
	obj := c.client("n1", "driver", "ctr")
	for cycle := 0; cycle < 3; cycle++ {
		add(t, obj, 1)
		if err := c.nodes["n2"].KillReplica("ctr", 10*time.Second); err != nil {
			t.Fatalf("cycle %d kill: %v", cycle, err)
		}
		add(t, obj, 1)
		if err := c.nodes["n2"].RecoverReplica("ctr", 15*time.Second); err != nil {
			t.Fatalf("cycle %d recover: %v", cycle, err)
		}
	}
	if got := get(t, obj); got != 6 {
		t.Fatalf("after cycles = %d, want 6", got)
	}
}

// TestFigure4RequestIDInconsistency reproduces the paper's Figure 4 (E4):
// without ORB-level state synchronization a recovered replica's ORB
// restarts its request_id counter, and its requests are mistaken for
// duplicates of long-answered operations — the replica hangs.
// With the synchronization (default), recovery is seamless.
func TestFigure4RequestIDInconsistency(t *testing.T) {
	run := func(orbStateTransfer bool) error {
		net := simnet.New(simnet.Config{})
		nodes := map[string]*Node{}
		for _, a := range []string{"m1", "m2"} {
			ep, err := net.Join(a)
			if err != nil {
				t.Fatal(err)
			}
			n, err := Start(Config{
				Transport:   totem.NewSimnetTransport(ep),
				Totem:       fastTotem(),
				ManagerTick: 10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			n.SetORBStateTransfer(orbStateTransfer)
			n.RegisterFactory("Counter", func(oid string) ftcorba.Replica { return &counter{} })
			nodes[a] = n
			defer n.Stop()
		}
		for _, n := range nodes {
			if err := n.AwaitSynced(10 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
		err := nodes["m1"].CreateGroup(replication.GroupSpec{
			Name: "ctr", TypeName: "Counter",
			Props: ftcorba.Properties{Style: ftcorba.Active, InitialReplicas: 2, MinReplicas: 1},
			Nodes: []string{"m1", "m2"},
		}, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		o := nodes["m1"].ClientORB("driver", orb.Options{RequestTimeout: 2 * time.Second})
		defer o.Close()
		ref, _ := nodes["m1"].GroupIOR("ctr")
		obj, _ := o.Object(ref)
		// Drive the request_id counter well past zero.
		for i := 0; i < 10; i++ {
			if _, err := obj.Invoke("get", nil); err != nil {
				t.Fatal(err)
			}
		}
		// Kill and recover the replica on m2.
		if err := nodes["m2"].KillReplica("ctr", 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := nodes["m2"].RecoverReplica("ctr", 15*time.Second); err != nil {
			t.Fatal(err)
		}
		// Kill m1's replica: only the recovered replica can answer now.
		if err := nodes["m1"].KillReplica("ctr", 10*time.Second); err != nil {
			t.Fatal(err)
		}
		_, err = obj.Invoke("get", nil)
		return err
	}
	if err := run(true); err != nil {
		t.Fatalf("with ORB-state transfer, recovery must be seamless: %v", err)
	}
	// Note: in this experiment the *server-side* consequence of missing
	// ORB state is the handshake (E5); the request-id consequence shows
	// on recovered *clients*. Here the recovered server replica without
	// handshake replay cannot interpret the client's negotiated short
	// keys and discards the requests — the client times out.
	if err := run(false); err == nil {
		t.Fatal("without ORB-state transfer the client must hang (timeout)")
	}
}
