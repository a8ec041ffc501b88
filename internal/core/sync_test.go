package core

import (
	"encoding/json"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"eternal/internal/ftcorba"
	"eternal/internal/obs"
	"eternal/internal/simnet"
)

// stallLoop parks n's delivery loop until the returned release is called.
// Totem goes on ordering underneath, so the node stays a ring member that
// is delivered everything and — for as long as the test likes — neither
// asks for the table nor answers anybody who does.
func stallLoop(t *testing.T, n *Node) (release func()) {
	t.Helper()
	parked, gate := make(chan struct{}), make(chan struct{})
	go n.onLoop(func() { close(parked); <-gate })
	<-parked
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

// awaitTotemView waits until n's totem endpoint installs a view of exactly
// members, whatever its delivery loop is doing. Nothing else reads Views.
func awaitTotemView(t *testing.T, n *Node, members ...string) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case v := <-n.proc.Views():
			if slices.Equal(v.Members, members) {
				return
			}
		case <-timeout:
			t.Fatalf("%s: totem never installed view %v", n.addr, members)
		}
	}
}

// syncedEvents lists the synced events n has recorded, oldest first.
func syncedEvents(n *Node) []obs.Event {
	var out []obs.Event
	for _, ev := range n.Events(0, 0) {
		if ev.Type == obs.EventSynced {
			out = append(out, ev)
		}
	}
	return out
}

// syncState reads what n's /healthz says about its synchronization: 503
// and the members it still waits on until synced, 200 and none after.
func syncState(t *testing.T, n *Node) (synced bool, waiting []string) {
	t.Helper()
	rec := httptest.NewRecorder()
	n.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var rep HealthReport
	if err := json.NewDecoder(rec.Body).Decode(&rep); err != nil {
		t.Fatalf("%s: /healthz: %v", n.addr, err)
	}
	if want := map[bool]int{false: 503, true: 200}[rep.Synced]; rec.Code != want {
		t.Fatalf("%s: /healthz %d with synced=%v", n.addr, rec.Code, rep.Synced)
	}
	if rep.Synced && len(rep.SyncWaiting) != 0 {
		t.Fatalf("%s: synced and waiting on %v", n.addr, rep.SyncWaiting)
	}
	return rep.Synced, rep.SyncWaiting
}

// awaitColdStart waits until every node is synced and demands that the
// last synced event of each is the same ordered event at the same position
// in the total order: the cold-start decision. It returns that event.
func awaitColdStart(t *testing.T, c *testCluster, addrs ...string) obs.Event {
	t.Helper()
	var first obs.Event
	for i, a := range addrs {
		if err := c.nodes[a].AwaitSynced(10 * time.Second); err != nil {
			t.Fatalf("%s: AwaitSynced: %v", a, err)
		}
		evs := syncedEvents(c.nodes[a])
		ev := evs[len(evs)-1]
		if !ev.Ordered {
			t.Fatalf("%s synced from a peer's answer (%q), not by the cold-start rule", a, ev.Detail)
		}
		if i == 0 {
			first = ev
		} else if ev.Seq != first.Seq || ev.Detail != first.Detail {
			t.Fatalf("%s decided at seq %d (%s), %s at seq %d (%s)",
				addrs[0], first.Seq, first.Detail, a, ev.Seq, ev.Detail)
		}
	}
	return first
}

// stalledCluster starts the nodes with their delivery loops parked; nodes
// added to it later run free.
func stalledCluster(t *testing.T, addrs ...string) (c *testCluster, release map[string]func()) {
	t.Helper()
	c = &testCluster{t: t, net: simnet.New(simnet.Config{}), nodes: make(map[string]*Node)}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Stop()
		}
	})
	release = make(map[string]func())
	for _, a := range addrs {
		release[a] = stallLoop(t, c.addNode(a))
	}
	return c, release
}

// TestColdStartOneOrderedSeq: three nodes started together, none with a
// table, all become synced at one position in the total order — the last of
// their three requests — and record it as the same ordered event, however
// the ring formed underneath (the loops are parked until totem has the full
// view, so a ring one of them formed alone on the way shows up as a stale
// request from an earlier view, which nobody counts).
func TestColdStartOneOrderedSeq(t *testing.T) {
	addrs := []string{"n1", "n2", "n3"}
	c, release := stalledCluster(t, addrs...)
	for _, a := range addrs {
		awaitTotemView(t, c.nodes[a], addrs...)
	}
	for _, a := range addrs {
		release[a]()
	}
	ev := awaitColdStart(t, c, addrs...)
	for _, a := range addrs {
		if evs := syncedEvents(c.nodes[a]); len(evs) != 1 {
			t.Fatalf("%s recorded %d synced events, want the one decision", a, len(evs))
		}
	}
	// The merged timeline lines the three up on it: one entry, three origins.
	feeds := make(map[string][]obs.Event)
	for _, a := range addrs {
		feeds[a] = c.nodes[a].Events(0, 0)
	}
	merged := obs.MergeEvents(feeds)
	if len(merged.Divergences) != 0 {
		t.Fatalf("merged timeline diverges: %+v", merged.Divergences)
	}
	for _, e := range merged.Entries {
		if e.Type == obs.EventSynced && (e.Seq != ev.Seq || !slices.Equal(e.Origins, addrs)) {
			t.Fatalf("merged synced entry at seq %d from %v, want seq %d from all three", e.Seq, e.Origins, ev.Seq)
		}
	}
	// The domain the decision started works.
	c.createGroup("ctr", ftcorba.Active, addrs, 1)
	if got := add(t, c.client("n3", "driver", "ctr"), 5); got != 5 {
		t.Fatalf("add = %d", got)
	}
}

// TestColdStartViewChangeBetweenRequests: n2 has asked in the two-node view
// and n1 has not when n3 joins. Requests name their view, so n2's first and
// n1's late one count for nothing in the three-node view, everybody asks
// again there, and all three decide at one position in it.
func TestColdStartViewChangeBetweenRequests(t *testing.T) {
	c, release := stalledCluster(t, "n1")
	n2 := c.addNode("n2")
	awaitTotemView(t, c.nodes["n1"], "n1", "n2")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		synced, waiting := syncState(t, n2)
		if synced {
			t.Fatal("n2 decided alone in a view n1 never asked in")
		}
		if slices.Equal(waiting, []string{"n1"}) {
			break // n2's own request is ordered; n1's is what it lacks
		}
		if time.Now().After(deadline) {
			t.Fatalf("n2 waits on %v, want on n1 only", waiting)
		}
	}
	c.addNode("n3")
	awaitTotemView(t, c.nodes["n1"], "n1", "n2", "n3")
	release["n1"]()
	ev := awaitColdStart(t, c, "n1", "n2", "n3")
	for a, n := range c.nodes {
		if evs := syncedEvents(n); len(evs) != 1 {
			t.Fatalf("%s recorded %d synced events: a request or an answer from the two-node view counted", a, len(evs))
		}
		if synced, _ := syncState(t, n); !synced {
			t.Fatalf("%s: /healthz says unsynced after the decision", a)
		}
	}
	t.Logf("decided at seq %d: %s", ev.Seq, ev.Detail)
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 1)
	if got := add(t, c.client("n2", "driver", "ctr"), 2); got != 2 {
		t.Fatalf("add = %d", got)
	}
}

// TestSyncWaitsForASlowAnswer: a joiner whose only synced peer takes longer
// to answer than any fixed delay — here longer than the 750 ms after which
// a node used to declare itself synced with an empty table, and then drop
// the answer — goes on waiting, says on whom, and ends with the group.
func TestSyncWaitsForASlowAnswer(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1")
	if evs := syncedEvents(c.nodes["n1"]); len(evs) != 1 || evs[0].Ordered {
		t.Fatalf("n1 alone recorded %+v, want one local synced event: its sequence space is its own", evs)
	}
	c.createGroup("ctr", ftcorba.Active, []string{"n1"}, 1)
	obj := c.client("n1", "driver", "ctr")
	add(t, obj, 4)
	release := stallLoop(t, c.nodes["n1"])
	n2 := c.addNode("n2")
	awaitTotemView(t, c.nodes["n1"], "n1", "n2")
	time.Sleep(900 * time.Millisecond)
	if synced, waiting := syncState(t, n2); synced || !slices.Equal(waiting, []string{"n1"}) {
		t.Fatalf("synced=%v waiting=%v with the only synced peer yet to answer: n2 did not wait for n1", synced, waiting)
	}
	release()
	if err := n2.AwaitSynced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if evs := syncedEvents(n2); len(evs) != 1 || evs[0].Ordered {
		t.Fatalf("n2's synced events %+v, want the one answer from n1", evs)
	}
	if members, err := n2.GroupMembers("ctr"); err != nil || len(members) != 1 {
		t.Fatalf("n2 knows ctr as %v, %v after n1's late answer", members, err)
	}
	// It can take the group over.
	if err := n2.RecoverReplica("ctr", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	c.nodes["n1"].KillReplica("ctr", 10*time.Second)
	if got := get(t, obj); got != 4 {
		t.Fatalf("n2's replica state = %d, want 4", got)
	}
}

// TestSyncSyncedMemberDiesBeforeAnswering: two joiners wait on the one
// synced member, which dies without answering either. The next view has
// only the two of them in it, both ask again, and both decide there.
func TestSyncSyncedMemberDiesBeforeAnswering(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1")
	c.createGroup("ctr", ftcorba.Active, []string{"n1"}, 1)
	stallLoop(t, c.nodes["n1"])
	n2, n3 := c.addNode("n2"), c.addNode("n3")
	awaitTotemView(t, c.nodes["n1"], "n1", "n2", "n3")
	for _, n := range []*Node{n2, n3} {
		if err := n.AwaitView([]string{"n1", "n2", "n3"}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c.net.Isolate("n1")
	ev := awaitColdStart(t, c, "n2", "n3")
	for _, n := range []*Node{n2, n3} {
		if _, err := n.GroupMembers("ctr"); err == nil {
			t.Fatalf("%s knows a group nobody told it about", n.addr)
		}
	}
	t.Logf("decided at seq %d: %s", ev.Seq, ev.Detail)
}

// TestSyncEveryMemberResetConverges: a fresh node whose address makes it
// the merged ring's representative brings its own, empty, lineage, so the
// members of the running domain are reset and nobody in the view is synced
// (bench finding (c): their groups are lost, which is the primary-component
// item's to fix). What must hold here is that nobody waits for an answer
// that cannot come: all three decide, at one position.
func TestSyncEveryMemberResetConverges(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2")
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2"}, 1)
	c.addNode("n0")
	addrs := []string{"n0", "n1", "n2"}
	for _, a := range addrs {
		if err := c.nodes[a].AwaitView(addrs, 10*time.Second); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
	awaitColdStart(t, c, addrs...)
	c.createGroup("ctr2", ftcorba.Active, addrs, 1)
	if got := add(t, c.client("n0", "driver", "ctr2"), 3); got != 3 {
		t.Fatalf("add = %d", got)
	}
}

// TestSyncSplitStartMergesBeforeUse: {n1} and {n2,n3} form rings of their
// own and each decides there; the merge resets one side, whose latched
// "synced" must not outlive it — awaitDomain (and NewSystem) hand the domain
// over only when every node has the table of the side that survived.
func TestSyncSplitStartMergesBeforeUse(t *testing.T) {
	addrs := []string{"n1", "n2", "n3"}
	c, _ := stalledCluster(t) // no nodes yet: the partition comes first
	c.net.Partition([]string{"n1"}, []string{"n2", "n3"})
	for _, a := range addrs {
		c.addNode(a)
	}
	for _, a := range addrs {
		if err := c.nodes[a].AwaitSynced(10 * time.Second); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
	c.createGroup("ctr", ftcorba.Active, []string{"n1"}, 1)
	c.net.Heal()
	c.awaitDomain(addrs)
	for _, a := range addrs {
		if members, err := c.nodes[a].GroupMembers("ctr"); err != nil || len(members) != 1 {
			t.Fatalf("%s knows ctr as %v, %v after the merge", a, members, err)
		}
	}
}
