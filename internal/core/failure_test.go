package core

import (
	"fmt"
	"net"
	"testing"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
	"eternal/internal/obs"
	"eternal/internal/orb"
	"eternal/internal/replication"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// TestLossyNetworkEndToEnd drives the full Eternal stack over a lossy
// medium: totem's retransmission machinery must make every invocation
// reliable despite dropped frames.
func TestLossyNetworkEndToEnd(t *testing.T) {
	c := newTestCluster(t, simnet.Config{LossRate: 0.03, Seed: 11}, "n1", "n2", "n3")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 1)
	obj := c.client("n1", "driver", "ctr")
	for i := int64(1); i <= 30; i++ {
		if got := add(t, obj, 1); got != i {
			t.Fatalf("add #%d = %d under loss", i, got)
		}
	}
}

// TestRecoveryWithLoss combines frame loss with a kill/recover cycle.
func TestRecoveryWithLoss(t *testing.T) {
	c := newTestCluster(t, simnet.Config{LossRate: 0.02, Seed: 3}, "n1", "n2")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2"}, 1)
	obj := c.client("n1", "driver", "ctr")
	add(t, obj, 10)
	if err := c.nodes["n2"].KillReplica("ctr", 20*time.Second); err != nil {
		t.Fatal(err)
	}
	add(t, obj, 10)
	if err := c.nodes["n2"].RecoverReplica("ctr", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n1"].KillReplica("ctr", 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := get(t, obj); got != 20 {
		t.Fatalf("state after recovery under loss = %d", got)
	}
}

// TestDonorDiesMidTransfer kills the state donor between the AddMember
// synchronization point and its SetState; the next operational member
// must take over the capture (loop.reconcile's re-capture path).
func TestDonorDiesMidTransfer(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 1)
	obj := c.client("n3", "driver", "ctr")
	add(t, obj, 7)
	// Remove n3's replica, then crash the donor (n1, first operational)
	// immediately after initiating recovery. n2 must complete the
	// transfer.
	if err := c.nodes["n3"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	n3 := c.nodes["n3"]
	recovered := make(chan error, 1)
	go func() {
		recovered <- n3.RecoverReplica("ctr", 30*time.Second)
	}()
	c.crashNode("n1")
	if err := <-recovered; err != nil {
		t.Fatalf("recovery did not survive donor death: %v", err)
	}
	// n3's replica must carry the state. Leave only it alive.
	if err := c.nodes["n2"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := get(t, obj); got != 7 {
		t.Fatalf("state after donor death = %d", got)
	}
}

// TestColdPassiveWithoutCheckpoint promotes a cold backup before any
// checkpoint was ever taken: the whole history must replay from the log.
func TestColdPassiveWithoutCheckpoint(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	// Long checkpoint interval: no checkpoint will land during the test.
	props := ftcorba.Properties{
		Style: ftcorba.ColdPassive, InitialReplicas: 2, MinReplicas: 1,
		CheckpointInterval: time.Hour,
	}
	err := c.nodes["n1"].CreateGroup(groupSpec("ctr", props, []string{"n1", "n2"}), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	obj := c.client("n2", "driver", "ctr")
	for i := 0; i < 12; i++ {
		add(t, obj, 3)
	}
	if err := c.nodes["n1"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n2"].AwaitPromoted("ctr", "n2", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := get(t, obj); got != 36 {
		t.Fatalf("cold promotion from full log = %d, want 36", got)
	}
}

// TestMultipleGroupsIndependent runs two groups with different styles on
// overlapping nodes: operations and failovers must not interfere.
func TestMultipleGroupsIndependent(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	c.createGroup("alpha", ftcorba.Active, []string{"n1", "n2"}, 1)
	c.createGroup("beta", ftcorba.WarmPassive, []string{"n2", "n3"}, 1)
	a := c.client("n1", "driver-a", "alpha")
	b := c.client("n3", "driver-b", "beta")
	add(t, a, 1)
	add(t, b, 100)
	time.Sleep(250 * time.Millisecond) // beta checkpoint
	add(t, b, 100)
	// Kill beta's primary; alpha must be unaffected.
	if err := c.nodes["n2"].KillReplica("beta", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n3"].AwaitPromoted("beta", "n3", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := get(t, b); got != 200 {
		t.Fatalf("beta after failover = %d", got)
	}
	if got := add(t, a, 1); got != 2 {
		t.Fatalf("alpha disturbed by beta failover: %d", got)
	}
	// n2 still hosts alpha even though its beta replica died.
	if !c.nodes["n2"].HostsReplica("alpha") {
		t.Fatal("n2 lost its alpha replica")
	}
	if c.nodes["n2"].HostsReplica("beta") {
		t.Fatal("n2 still hosts beta")
	}
}

// TestOnewayInvocations exercises CORBA oneway semantics end to end: no
// reply is produced, yet the operations are totally ordered and execute
// exactly once.
func TestOnewayInvocations(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2"}, 1)
	obj := c.client("n1", "driver", "ctr")
	// Interleave oneways with a two-way barrier.
	for i := 0; i < 5; i++ {
		e := encodeDelta(1)
		if err := obj.InvokeOneway("add", e); err != nil {
			t.Fatal(err)
		}
	}
	// The two-way behind them observes all five (same connection, ordered).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := get(t, obj); got == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oneways not applied: %d", get(t, obj))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInvocationHistogramCountsTwoWayReplies: eternal_invocation_seconds
// takes one sample per two-way reply delivered to a local client, read off
// the invocation's span, and none for oneways. The calls are serial, so
// the samples add up to no more than the loop's wall time.
func TestInvocationHistogramCountsTwoWayReplies(t *testing.T) {
	const twoWays, oneways = 20, 10
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2"}, 1)
	obj := c.client("n1", "driver", "ctr")
	h := c.nodes["n1"].Metrics().FindHistogram("eternal_invocation_seconds")
	if h.Count() != 0 {
		t.Fatalf("histogram holds %d samples before any invocation", h.Count())
	}
	start := time.Now()
	for i := 0; i < twoWays; i++ {
		if i < oneways {
			if err := obj.InvokeOneway("add", encodeDelta(1)); err != nil {
				t.Fatal(err)
			}
		}
		add(t, obj, 1)
	}
	// A reply reaches the client before its sample is taken: wait for the
	// last one.
	deadline := time.Now().Add(5 * time.Second)
	for h.Count() < twoWays && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	wall := time.Since(start)
	if h.Count() != twoWays {
		t.Fatalf("histogram count = %d after %d two-way calls and %d oneways, want %d",
			h.Count(), twoWays, oneways, twoWays)
	}
	if sum := h.Sum(); sum <= 0 || sum > wall.Seconds() {
		t.Fatalf("histogram sum = %gs, want within (0, %gs]", sum, wall.Seconds())
	}
}

// TestPartitionPrimaryComponent splits the network and verifies each side
// forms its own ring; after healing, the domain merges and the (losing)
// reset side re-synchronizes its metadata and sheds its stale replicas.
func TestPartitionPrimaryComponent(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 1)
	obj := c.client("n1", "driver", "ctr")
	add(t, obj, 1)

	c.net.Partition([]string{"n1", "n2"}, []string{"n3"})
	// The majority side keeps serving.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := obj.Invoke("get", nil); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("majority side never resumed")
		}
	}
	add(t, obj, 1)

	c.net.Heal()
	// After the merge, the full cluster serves consistently again; give
	// the rings time to merge and the managers to reconcile.
	deadline = time.Now().Add(20 * time.Second)
	for {
		if got, err := tryGet(obj); err == nil && got == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster did not serve consistently after heal")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func groupSpec(name string, props ftcorba.Properties, nodes []string) replication.GroupSpec {
	return replication.GroupSpec{Name: name, TypeName: "Counter", Props: props, Nodes: nodes}
}

func encodeDelta(v int64) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteLongLong(v)
	return e.Bytes()
}

func tryGet(obj *orb.ObjectRef) (int64, error) {
	out, err := obj.InvokeTimeout("get", nil, 2*time.Second)
	if err != nil {
		return 0, err
	}
	d := cdr.NewDecoder(out, cdr.BigEndian)
	return d.ReadLongLong()
}

func TestStressManyClients(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2"}, 1)
	const clients, per = 6, 15
	done := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		go func() {
			obj := c.client("n1", fmt.Sprintf("client-%d", i), "ctr")
			for j := 0; j < per; j++ {
				e := encodeDelta(1)
				if _, err := obj.Invoke("add", e); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	obj := c.client("n2", "checker", "ctr")
	if got := get(t, obj); got != clients*per {
		t.Fatalf("total = %d, want %d", got, clients*per)
	}
}

// wedgeable is a replica that can be told to hang forever — a replica-
// level fault (as opposed to a processor crash) that only the pull
// monitor can detect.
type wedgeable struct {
	counter
	faulty bool
}

func (w *wedgeable) Invoke(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
	if op == "hang" {
		if w.faulty {
			select {} // wedge forever
		}
		return nil, nil
	}
	return w.counter.Invoke(op, args, order)
}

// hasEvent reports whether n's flight recorder holds an event of type typ
// about node's replica of group.
func hasEvent(n *Node, typ, group, node string) bool {
	for _, ev := range n.Events(0, 0) {
		if ev.Type == typ && ev.Group == group && ev.Node == node {
			return true
		}
	}
	return false
}

// TestPullMonitorDetectsWedgedReplica wires the full loop: a replica
// wedges, the is_alive pull monitor (FaultMonitoringInterval) detects it
// and reports it to the Replication Manager, which records the suspicion
// and removes the faulty replica in the total order, and the Resource
// Manager re-launches a replacement — all while the healthy replica keeps
// serving.
func TestPullMonitorDetectsWedgedReplica(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	// n2's factory produces instances with a local defect.
	c.nodes["n2"].RegisterFactory("Wedge", func(oid string) ftcorba.Replica {
		return &wedgeable{faulty: true}
	})
	c.nodes["n1"].RegisterFactory("Wedge", func(oid string) ftcorba.Replica {
		return &wedgeable{}
	})
	props := ftcorba.Properties{
		Style: ftcorba.Active, InitialReplicas: 2, MinReplicas: 2,
		FaultMonitoringInterval: 30 * time.Millisecond,
	}
	err := c.nodes["n1"].CreateGroup(replication.GroupSpec{
		Name: "w", TypeName: "Wedge", Props: props, Nodes: []string{"n1", "n2"},
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	obj := c.client("n1", "driver", "w")
	add(t, obj, 1)

	// Wedge n2's replica. n1 answers, so the client is fine; n2's
	// dispatcher stays stuck inside the servant, and only the pull
	// monitor's probe notices.
	if _, err := obj.Invoke("hang", nil); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "n2's suspicion of its wedged replica", func() bool {
		return hasEvent(c.nodes["n2"], obs.EventSuspicion, "w", "n2")
	})
	// The managers remove and re-launch the replica on n2.
	if err := c.nodes["n1"].AwaitRecovered("w", "n2", 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// Meanwhile service never stopped.
	if got := add(t, obj, 1); got != 2 {
		t.Fatalf("counter = %d", got)
	}
}

// TestPullMonitorWatchesPromotedColdPrimary: a cold-passive backup has no
// instance to monitor until its promotion creates one. From then on it is
// pull-monitored like any replica: wedged, it is suspected and removed.
func TestPullMonitorWatchesPromotedColdPrimary(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	c.nodes["n1"].RegisterFactory("Wedge", func(oid string) ftcorba.Replica {
		return &wedgeable{}
	})
	c.nodes["n2"].RegisterFactory("Wedge", func(oid string) ftcorba.Replica {
		return &wedgeable{faulty: true}
	})
	props := ftcorba.Properties{
		Style: ftcorba.ColdPassive, InitialReplicas: 2, MinReplicas: 1,
		CheckpointInterval: time.Hour, FaultMonitoringInterval: 30 * time.Millisecond,
	}
	err := c.nodes["n1"].CreateGroup(replication.GroupSpec{
		Name: "w", TypeName: "Wedge", Props: props, Nodes: []string{"n1", "n2"},
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	obj := c.client("n1", "driver", "w")
	add(t, obj, 1)
	if err := c.nodes["n1"].KillReplica("w", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n2"].AwaitPromoted("w", "n2", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The promoted primary is the only replica left, so nothing answers
	// the call that wedges it.
	go obj.Invoke("hang", nil)
	waitUntil(t, "n2's suspicion of its wedged replica", func() bool {
		return hasEvent(c.nodes["n2"], obs.EventSuspicion, "w", "n2")
	})
	waitUntil(t, "the wedged replica's removal", func() bool {
		return hasEvent(c.nodes["n1"], obs.EventMemberRemove, "w", "n2")
	})
}

// TestFullStackOverUDP runs two Eternal nodes over real UDP sockets (the
// cmd/eternald deployment shape) and exercises invocation, failover and
// recovery across them.
func TestFullStackOverUDP(t *testing.T) {
	ports := make([]int, 2)
	for i := range ports {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = c.LocalAddr().(*net.UDPAddr).Port
		c.Close()
	}
	addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", ports[i]) }
	names := []string{"u1", "u2"}
	nodes := make(map[string]*Node)
	for i, name := range names {
		peers := map[string]string{}
		for j, peer := range names {
			if j != i {
				peers[peer] = addr(j)
			}
		}
		tr, err := totem.NewUDPTransport(name, addr(i), peers)
		if err != nil {
			t.Fatal(err)
		}
		n, err := Start(Config{
			Transport:   tr,
			Totem:       fastTotem(),
			ManagerTick: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.RegisterFactory("Counter", func(oid string) ftcorba.Replica { return &counter{} })
		nodes[name] = n
		defer n.Stop()
	}
	for _, n := range nodes {
		if err := n.AwaitSynced(15 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	err := nodes["u1"].CreateGroup(replication.GroupSpec{
		Name: "ctr", TypeName: "Counter",
		Props: ftcorba.Properties{Style: ftcorba.Active, InitialReplicas: 2, MinReplicas: 1},
		Nodes: []string{"u1", "u2"},
	}, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	o := nodes["u1"].ClientORB("udp-driver", orb.Options{RequestTimeout: 15 * time.Second})
	defer o.Close()
	ref, err := nodes["u1"].GroupIOR("ctr")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := o.Object(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got := add(t, obj, 5); got != 5 {
		t.Fatalf("add over UDP = %d", got)
	}
	if err := nodes["u2"].KillReplica("ctr", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := add(t, obj, 5); got != 10 {
		t.Fatalf("after kill = %d", got)
	}
	if err := nodes["u2"].RecoverReplica("ctr", 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := nodes["u1"].KillReplica("ctr", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := get(t, obj); got != 10 {
		t.Fatalf("recovered over UDP = %d", got)
	}
}

// TestTotalGroupLossRestartsFresh kills every replica of a group, then
// recovers one: with no operational member to donate state, the new
// replica must start from its type's initial state (the best possible
// outcome after total loss) rather than wait forever for a donor.
func TestTotalGroupLossRestartsFresh(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2"}, 1)
	obj := c.client("n1", "driver", "ctr")
	add(t, obj, 41)
	// Total loss.
	if err := c.nodes["n1"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes["n2"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Recovery with no donor: fresh initial state, immediately operational.
	if err := c.nodes["n2"].RecoverReplica("ctr", 10*time.Second); err != nil {
		t.Fatalf("recovery after total loss must not hang: %v", err)
	}
	// The OLD client's connection negotiated shortcut keys with the dead
	// replicas; with no surviving replica to donate the handshake, the
	// fresh ORB rightly discards those requests (§4.2.2) — total state
	// loss breaks established sessions. A re-bootstrapped client (fresh
	// connection, fresh handshake) reaches the fresh replica.
	if _, err := obj.InvokeTimeout("get", nil, time.Second); err == nil {
		t.Fatal("stale session must not survive total group loss")
	}
	fresh := c.client("n1", "driver-reborn", "ctr")
	if got := get(t, fresh); got != 0 {
		t.Fatalf("fresh replica state = %d, want 0 (initial)", got)
	}
	if got := add(t, fresh, 1); got != 1 {
		t.Fatalf("fresh replica add = %d", got)
	}
}
