package eternal_test

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"eternal"
	"eternal/internal/history"
	"eternal/internal/orb"
	"eternal/internal/totem"
)

// counterSum adds the named counter over every node's metrics registry.
func counterSum(sys *eternal.System, name string) float64 {
	var sum float64
	for _, nd := range sys.Nodes() {
		var buf strings.Builder
		sys.Node(nd).Metrics().WritePrometheus(&buf)
		for _, line := range strings.Split(buf.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, _ := strconv.ParseFloat(rest, 64)
				sum += v
			}
		}
	}
	return sum
}

// benchRing is a domain on the benchmark's medium and timers with one
// actively replicated "blob" group on every node, and each node's replica.
func benchRing(t *testing.T, nodes []string) (*eternal.System, map[string]*blob) {
	t.Helper()
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes:          nodes,
		Network:        paperLAN(),
		Totem:          benchTotem(),
		ManagerTick:    5 * time.Millisecond,
		DefaultTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Shutdown)
	replicas := make(map[string]*blob)
	for _, nd := range nodes {
		b := newBlob(10)
		replicas[nd] = b
		sys.Node(nd).RegisterFactory("Blob", func(string) eternal.Replica { return b })
	}
	if err := sys.CreateGroup(eternal.GroupSpec{
		Name: "blob", TypeName: "Blob", Nodes: nodes,
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: len(nodes), MinReplicas: 1},
	}); err != nil {
		t.Fatal(err)
	}
	return sys, replicas
}

// TestTwoRingClosedLoopKeepsServing is bench finding (a) as a regression
// test: a 2-way active group on a 2-member ring, the benchmark's medium and
// timers, and one client that sends its next ping the moment the last one
// is answered — first next to the ring representative, then next to the
// other member. With a second orderer beside the token and no flow control
// on it, the member without the client fell thousands of requests behind
// inside four seconds, the ring reformed again and again, and the group was
// lost. Not skipped under -short: the race job runs it too.
func TestTwoRingClosedLoopKeepsServing(t *testing.T) {
	nodes := []string{"n1", "n2"}
	for _, clientNode := range nodes {
		t.Run("client-"+clientNode, func(t *testing.T) {
			sys, replicas := benchRing(t, nodes)
			cl, err := sys.Client(clientNode, "driver")
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			obj, err := cl.Resolve("blob")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := obj.InvokeTimeout("ping", nil, 2*time.Second); err != nil {
				t.Fatal(err)
			}
			views := counterSum(sys, "eternal_totem_view_changes_total")
			tombstones := counterSum(sys, "eternal_totem_tombstones_total")

			// The lag is the spread of executed requests across the two
			// nodes, sampled beside the client every 100 ms.
			var lagMax uint64
			stop, sampled := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(sampled)
				tick := time.NewTicker(100 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
					}
					a := sys.Node("n1").Stats().RequestsExecuted
					b := sys.Node("n2").Stats().RequestsExecuted
					lagMax = max(lagMax, max(a, b)-min(a, b))
				}
			}()
			var acked, failed uint64
			for end := time.Now().Add(4 * time.Second); time.Now().Before(end); {
				if _, err := obj.InvokeTimeout("ping", nil, 2*time.Second); err != nil {
					failed++
				} else {
					acked++
				}
			}
			close(stop)
			<-sampled
			t.Logf("acked %d, failed %d, lag max %d", acked, failed, lagMax)

			if failed > 0 {
				t.Errorf("%d of %d invocations failed", failed, acked+failed)
			}
			if lagMax >= 1000 {
				t.Errorf("one member fell %d requests behind the other", lagMax)
			}
			if d := counterSum(sys, "eternal_totem_view_changes_total") - views; d != 0 {
				t.Errorf("%v view changes after the ring had formed", d)
			}
			if d := counterSum(sys, "eternal_totem_tombstones_total") - tombstones; d != 0 {
				t.Errorf("%v sequence numbers tombstoned", d)
			}
			// Quiesce: both replicas alive, equal, and holding every
			// acknowledged ping (plus the warm-up one).
			count := func(nd string) uint64 {
				replicas[nd].mu.Lock()
				defer replicas[nd].mu.Unlock()
				return replicas[nd].n
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				n1, n2 := count("n1"), count("n2")
				alive := sys.Node("n1").HostsReplica("blob") && sys.Node("n2").HostsReplica("blob")
				if alive && n1 == n2 && n1 >= acked+1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("after quiesce: both alive %v, n1 executed %d, n2 executed %d, client holds %d replies",
						alive, n1, n2, acked+1)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// TestTokenFramesPerInvocationBudget is the token's share of the wire as a
// budget that fails without the benchmark: a 3-way active group on the
// benchmark's medium and timers, serial closed-loop clients, and the nodes'
// own counters. With a client on n1 and one on n3 — bench/'s active3_pair —
// most invocations are one token visit, the token waiting at the requester
// for its own replica's reply: 2.1–2.45 token frames and 0.14–0.20 nudges in
// twelve runs (3.8 and 0.38 when the token went round once for the request
// and once for the reply; 1.9 and 0.05 if every visit held, which a member
// whose reply came later than the token usually stays away does not do the
// next time). With one client the token rests at its node: 0.1, or 0.2–0.4
// in a run where peers' lazy replies keep breaking the sole sender's run, at
// the parent commit just the same — hence 0.6 for "did not move". A frame
// budget is not the race detector's to judge, so -short skips it.
func TestTokenFramesPerInvocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("frame budget: skipped under -short")
	}
	nodes := []string{"n1", "n2", "n3"}
	for _, tc := range []struct {
		name      string
		clients   []string
		maxTokens float64
	}{
		{"pair", []string{"n1", "n3"}, 2.8},
		{"sole-sender", []string{"n1"}, 0.6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, replicas := benchRing(t, nodes)
			var objs []*eternal.ObjectRef
			for _, nd := range tc.clients {
				cl, err := sys.Client(nd, "driver-"+nd)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				obj, err := cl.Resolve("blob")
				if err != nil {
					t.Fatal(err)
				}
				objs = append(objs, obj)
			}
			// run has every client do n pings, all clients at once.
			run := func(n int) {
				var clients sync.WaitGroup
				for _, obj := range objs {
					obj := obj
					clients.Add(1)
					go func() {
						defer clients.Done()
						for i := 0; i < n; i++ {
							if _, err := obj.InvokeTimeout("ping", nil, 2*time.Second); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				clients.Wait()
			}
			run(200) // warm-up: connections, and idleGrace for the sole sender
			// Frames that are neither data, retransmitted data nor nudges
			// are tokens (and the representative's beacon, one per 80 ms).
			tokenFrames := func() float64 {
				return counterSum(sys, "eternal_totem_packets_out_total") -
					counterSum(sys, "eternal_totem_data_frames_total") -
					counterSum(sys, "eternal_totem_retransmits_total") -
					counterSum(sys, "eternal_totem_hurries_sent_total")
			}
			const each = 2000
			tokens, hurries := tokenFrames(), counterSum(sys, "eternal_totem_hurries_sent_total")
			views := counterSum(sys, "eternal_totem_view_changes_total")
			tombstones := counterSum(sys, "eternal_totem_tombstones_total")
			run(each)
			inv := float64(each * len(objs))
			tokens, hurries = (tokenFrames()-tokens)/inv, (counterSum(sys, "eternal_totem_hurries_sent_total")-hurries)/inv
			t.Logf("%.2f token frames and %.3f nudges per invocation; %v reply holds, %v rests", tokens, hurries,
				counterSum(sys, "eternal_totem_reply_holds_total"), counterSum(sys, "eternal_totem_rests_total"))
			if tokens > tc.maxTokens {
				t.Errorf("%.2f token frames per invocation, budget %.1f", tokens, tc.maxTokens)
			}
			if hurries > 0.25 {
				t.Errorf("%.3f nudges per invocation, budget 0.25", hurries)
			}
			if d := counterSum(sys, "eternal_totem_view_changes_total") - views; d != 0 {
				t.Errorf("%v view changes after the ring had formed", d)
			}
			if d := counterSum(sys, "eternal_totem_tombstones_total") - tombstones; d != 0 {
				t.Errorf("%v sequence numbers tombstoned", d)
			}
			// Quiesce: every replica holds every acknowledged ping.
			want := uint64((200 + each) * len(objs))
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
				equal := true
				for _, b := range replicas {
					b.mu.Lock()
					equal = equal && b.n == want
					b.mu.Unlock()
				}
				if equal {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("after quiesce the replicas do not all hold %d pings", want)
				}
			}
		})
	}
}

// TestWireBytesPerInvocationBudget is the paper's configuration priced in
// bytes: a 3-way active group on the benchmark's medium and timers, one
// serial client on n1 — the ring's sole sender, so the token rests there —
// and the medium's own count of bytes on the wire, each frame's 54 bytes of
// Ethernet, IP and UDP included. An invocation is 2.1–2.2 frames: the
// request, the reply and a share of the token's housekeeping rotations.
// With Totem's headers in CDR that read 528–548 B per invocation; in
// Totem's compact codec 412–440; with the replication envelope off CDR too,
// about 300; with the envelope carrying no trace id, no empty field and no
// GIOP header it can restate, about 250. The frame count is the same
// throughout, so the budget moves with the bytes of Totem's own headers and
// the replication envelope and nothing else. Like the frame budget, not the
// race detector's to judge.
func TestWireBytesPerInvocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("byte budget: skipped under -short")
	}
	sys, _ := benchRing(t, []string{"n1", "n2", "n3"})
	cl, err := sys.Client("n1", "driver-n1")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	obj, err := cl.Resolve("blob")
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := obj.InvokeTimeout("ping", nil, 2*time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(200) // warm-up: connections, and idleGrace for the sole sender
	const each = 2000
	before := sys.Network().Stats()
	run(each)
	after := sys.Network().Stats()
	bytes := float64(after.BytesOnWire-before.BytesOnWire) / each
	frames := float64(after.FramesSent-before.FramesSent) / each
	t.Logf("%.0f bytes in %.2f frames per invocation", bytes, frames)
	if bytes > 260 {
		t.Errorf("%.0f bytes on the wire per invocation, budget 260", bytes)
	}
}

func fastSystem(t *testing.T, nodes ...string) *eternal.System {
	t.Helper()
	return stableForSystem(t, 20*time.Millisecond, nodes...)
}

// stableForSystem is fastSystem with the given Totem StableFor.
func stableForSystem(t *testing.T, stableFor time.Duration, nodes ...string) *eternal.System {
	t.Helper()
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes: nodes,
		Totem: totem.Config{
			TokenLossTimeout: 100 * time.Millisecond,
			JoinInterval:     10 * time.Millisecond,
			StableFor:        stableFor,
			Tick:             time.Millisecond,
		},
		ManagerTick:    10 * time.Millisecond,
		DefaultTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Shutdown)
	sys.RegisterFactory("Register", newRegister)
	return sys
}

// newRegister is the "Register" factory of the tests' domains.
func newRegister(string) eternal.Replica { return &history.Register{} }

// registerGroup creates the group "reg" of history.Register replicas on
// nodes and returns a reference to it through a client on clientNode.
func registerGroup(t *testing.T, sys *eternal.System, props eternal.Properties, clientNode string, nodes ...string) *eternal.ObjectRef {
	t.Helper()
	if err := sys.CreateGroup(eternal.GroupSpec{Name: "reg", TypeName: "Register", Props: props, Nodes: nodes}); err != nil {
		t.Fatal(err)
	}
	cl, err := sys.Client(clientNode, "tester")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	obj, err := cl.Resolve("reg")
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func setVal(t *testing.T, obj *eternal.ObjectRef, s string) {
	t.Helper()
	e := eternal.NewEncoder(eternal.BigEndian)
	e.WriteString(s)
	if _, err := obj.Invoke("set", e.Bytes()); err != nil {
		t.Fatalf("set(%q): %v", s, err)
	}
}

func getVal(t *testing.T, obj *eternal.ObjectRef) string {
	t.Helper()
	out, err := obj.Invoke("get", nil)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	d := eternal.NewDecoder(out, eternal.BigEndian)
	s, _ := d.ReadString()
	return s
}

// wantHistory fails t unless obj's history holds exactly the writes vals,
// each acked, in that order (history.Check).
func wantHistory(t *testing.T, obj *eternal.ObjectRef, vals ...string) {
	t.Helper()
	hist, err := history.Read(obj, 20*time.Second)
	if err != nil {
		t.Fatalf("history: %v", err)
	}
	ops := make([]history.Op, len(vals))
	for i, v := range vals {
		ops[i] = history.Op{Client: "tester", Value: v, Acked: true}
	}
	if err := history.Check(ops, hist); err != nil {
		t.Fatalf("history %q: %v", hist, err)
	}
}

// TestConcurrentInvocationsShareOneConnection: goroutines invoking
// through one reference share one ORB connection, and every invocation
// is answered. The request id and the send are one step on the
// connection: were a later id sent before an earlier one, the group's
// duplicate filter would drop the earlier request and its caller would
// time out.
func TestConcurrentInvocationsShareOneConnection(t *testing.T) {
	sys := fastSystem(t, "n1", "n2", "n3")
	obj := registerGroup(t, sys, eternal.Properties{Style: eternal.Active, InitialReplicas: 3, MinReplicas: 2}, "n1", "n1", "n2", "n3")
	const callers, each = 8, 100
	ops := make([][]history.Op, callers)
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := fmt.Sprintf("g%d", g)
			for i := range each {
				v := fmt.Sprintf("%s-%d", client, i)
				e := eternal.NewEncoder(eternal.BigEndian)
				e.WriteString(v)
				_, err := obj.InvokeTimeout("set", e.Bytes(), 2*time.Second)
				ops[g] = append(ops[g], history.Op{Client: client, Value: v, Acked: err == nil})
			}
		}()
	}
	wg.Wait()
	var all []history.Op
	lost := 0
	for _, o := range ops {
		for _, op := range o {
			if !op.Acked {
				lost++
			}
		}
		all = append(all, o...)
	}
	if lost > 0 {
		t.Errorf("%d of %d invocations were not answered", lost, callers*each)
	}
	hist, err := history.Read(obj, 20*time.Second)
	if err != nil {
		t.Fatalf("history: %v", err)
	}
	if err := history.Check(all, hist); err != nil {
		t.Fatal(err)
	}
}

func TestSystemQuickstartFlow(t *testing.T) {
	sys := fastSystem(t, "n1", "n2", "n3")
	obj := registerGroup(t, sys, eternal.Properties{Style: eternal.Active, InitialReplicas: 3, MinReplicas: 2}, "n1", "n1", "n2", "n3")
	setVal(t, obj, "hello")
	if got := getVal(t, obj); got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestSystemNodeCrashAndRestart(t *testing.T) {
	sys := fastSystem(t, "n1", "n2", "n3")
	obj := registerGroup(t, sys, eternal.Properties{Style: eternal.Active, InitialReplicas: 3, MinReplicas: 3}, "n1", "n1", "n2", "n3")
	setVal(t, obj, "before-crash")

	sys.CrashNode("n3")
	// Service continues through the survivors.
	setVal(t, obj, "during-outage")
	if got := getVal(t, obj); got != "during-outage" {
		t.Fatalf("got %q", got)
	}

	// The restarted node syncs metadata and the Resource Manager
	// re-replicates onto it (MinReplicas = 3).
	n3, err := sys.RestartNode("n3")
	if err != nil {
		t.Fatal(err)
	}
	n3.RegisterFactory("Register", newRegister)
	if err := sys.Node("n1").AwaitRecovered("reg", "n3", 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// Verify the re-replicated copy: kill the others, ask n3's replica.
	sys.Node("n1").KillReplica("reg", 10*time.Second)
	sys.Node("n2").KillReplica("reg", 10*time.Second)
	if got := getVal(t, obj); got != "during-outage" {
		t.Fatalf("restarted replica state = %q", got)
	}
	wantHistory(t, obj, "before-crash", "during-outage")
}

// TestNewSystemDoesNotWaitStableFor: the domain's ring forms the moment
// every configured node has joined, so a StableFor nobody would wait out
// does not delay start-up.
func TestNewSystemDoesNotWaitStableFor(t *testing.T) {
	start := time.Now()
	stableForSystem(t, 10*time.Second, "n1", "n2", "n3")
	if took := time.Since(start); took > time.Second {
		t.Fatalf("NewSystem took %v with StableFor 10s; the configured ring should form at its last join", took)
	}
}

// TestRestartNodeDoesNotWaitStableFor: a crashed configured node that comes
// back completes the set again once its join is current (it has learnt the
// survivors' epoch), and the ring reforms at that join: the survivors, who
// alone would wait out StableFor, take it back at once.
func TestRestartNodeDoesNotWaitStableFor(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	sys := stableForSystem(t, 10*time.Second, nodes...)
	obj := registerGroup(t, sys, eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1}, "n1", "n1", "n2")
	setVal(t, obj, "before-crash")
	sys.CrashNode("n3")
	start := time.Now()
	if _, err := sys.RestartNode("n3"); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if err := sys.Node(n).AwaitView(nodes, 2*time.Second); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("the restarted node took %v to rejoin with StableFor 10s", took)
	}
	setVal(t, obj, "after-restart")
	wantHistory(t, obj, "before-crash", "after-restart")
}

// midTier is a replicated middle-tier object: a server that is also a
// client of the backend group (paper footnote 2). Its nested invocations
// must be duplicate-suppressed across its replicas.
type midTier struct {
	backend *eternal.ObjectRef
}

func (m *midTier) Invoke(op string, args []byte, order eternal.ByteOrder) ([]byte, error) {
	switch op {
	case "relay":
		// Nested invocation: set the backend register, then read it back.
		if _, err := m.backend.Invoke("set", args); err != nil {
			return nil, err
		}
		return m.backend.Invoke("get", nil)
	default:
		return nil, orb.BadOperation()
	}
}

func (m *midTier) GetState() (eternal.Any, error) { return eternal.AnyFromBytes(nil), nil }
func (m *midTier) SetState(eternal.Any) error     { return nil }

func TestMultiTierNestedInvocations(t *testing.T) {
	sys := fastSystem(t, "n1", "n2", "n3")
	// Backend register, actively replicated on n1+n2.
	err := sys.CreateGroup(eternal.GroupSpec{
		Name: "backend", TypeName: "Register",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1},
		Nodes: []string{"n1", "n2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Middle tier, actively replicated on n2+n3. Each node's factory
	// shares one client attachment per node (entity name = group name).
	for _, addr := range []string{"n2", "n3"} {
		node := sys.Node(addr)
		cl, err := sys.Client(addr, "mid")
		if err != nil {
			t.Fatal(err)
		}
		node.RegisterFactory("Mid", func(oid string) eternal.Replica {
			backend, err := cl.Resolve("backend")
			if err != nil {
				panic(err)
			}
			return &midTier{backend: backend}
		})
	}
	err = sys.CreateGroup(eternal.GroupSpec{
		Name: "mid", TypeName: "Mid",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1},
		Nodes: []string{"n2", "n3"},
	})
	if err != nil {
		t.Fatal(err)
	}

	cl, _ := sys.Client("n1", "driver")
	defer cl.Close()
	mid, err := cl.Resolve("mid")
	if err != nil {
		t.Fatal(err)
	}
	e := eternal.NewEncoder(eternal.BigEndian)
	e.WriteString("via-middle-tier")
	out, err := mid.Invoke("relay", e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d := eternal.NewDecoder(out, eternal.BigEndian)
	if s, _ := d.ReadString(); s != "via-middle-tier" {
		t.Fatalf("relay returned %q", s)
	}
	// The backend must have seen the set exactly once despite two middle
	// replicas issuing it (duplicate suppression of nested invocations).
	bcl, _ := sys.Client("n1", "checker")
	defer bcl.Close()
	backend, _ := bcl.Resolve("backend")
	wantHistory(t, backend, "via-middle-tier")
}

// TestHandshakeReplayE5 is experiment E5: a new server replica whose ORB
// missed the client-server handshake discards the client's requests
// (paper §4.2.2) — unless Eternal replays the stored handshake message
// during recovery, which is the default.
func TestHandshakeReplayE5(t *testing.T) {
	run := func(orbState bool) error {
		sys := fastSystem(t, "h1", "h2")
		defer sys.Shutdown()
		for _, a := range sys.Nodes() {
			sys.Node(a).SetORBStateTransfer(orbState)
		}
		err := sys.CreateGroup(eternal.GroupSpec{
			Name: fmt.Sprintf("reg-%v", orbState), TypeName: "Register",
			Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1},
			Nodes: []string{"h1", "h2"},
		})
		if err != nil {
			t.Fatal(err)
		}
		group := fmt.Sprintf("reg-%v", orbState)
		cl, _ := sys.Client("h1", "driver")
		defer cl.Close()
		obj, err := cl.Resolve(group)
		if err != nil {
			t.Fatal(err)
		}
		// First invocations perform (and complete) the handshake; the
		// client then uses the negotiated short object key.
		for i := 0; i < 5; i++ {
			setVal(t, obj, "warm")
		}
		// Kill and recover h2's replica, then make it the only one.
		if err := sys.Node("h2").KillReplica(group, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := sys.Node("h2").RecoverReplica(group, 15*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := sys.Node("h1").KillReplica(group, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		_, err = obj.InvokeTimeout("get", nil, 3*time.Second)
		return err
	}
	if err := run(true); err != nil {
		t.Fatalf("with handshake replay the recovered replica must serve: %v", err)
	}
	if err := run(false); err == nil {
		t.Fatal("without handshake replay the request must be discarded (client hangs)")
	}
}

func TestWarmPassiveEndToEnd(t *testing.T) {
	sys := fastSystem(t, "n1", "n2")
	obj := registerGroup(t, sys, eternal.Properties{Style: eternal.WarmPassive, InitialReplicas: 2, MinReplicas: 1, CheckpointInterval: 80 * time.Millisecond}, "n2", "n1", "n2")
	var written []string
	for i := 0; i < 5; i++ {
		written = append(written, fmt.Sprintf("v%d", i))
		setVal(t, obj, written[i])
	}
	time.Sleep(200 * time.Millisecond) // let a checkpoint land
	setVal(t, obj, "after-ckpt")
	sys.Node("n1").KillReplica("reg", 10*time.Second)
	if err := sys.Node("n2").AwaitPromoted("reg", "n2", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := getVal(t, obj); got != "after-ckpt" {
		t.Fatalf("after failover: %q", got)
	}
	wantHistory(t, obj, append(written, "after-ckpt")...)
}

// registerV2 is the upgraded implementation for the Evolution Manager
// test: same state format, one new operation.
type registerV2 struct {
	history.Register
}

func (r *registerV2) Invoke(op string, args []byte, order eternal.ByteOrder) ([]byte, error) {
	if op == "version" {
		e := eternal.NewEncoder(order)
		e.WriteULong(2)
		return e.Bytes(), nil
	}
	return r.Register.Invoke(op, args, order)
}

// TestEvolutionManagerLiveUpgrade upgrades a running group to a new
// implementation with no downtime: replicas are replaced one at a time,
// state carrying over through the ordinary transfer protocol.
func TestEvolutionManagerLiveUpgrade(t *testing.T) {
	sys := fastSystem(t, "n1", "n2", "n3")
	obj := registerGroup(t, sys, eternal.Properties{Style: eternal.Active, InitialReplicas: 3, MinReplicas: 1}, "n1", "n1", "n2", "n3")
	setVal(t, obj, "pre-upgrade")

	// v1 has no "version" operation.
	if _, err := obj.Invoke("version", nil); err == nil {
		t.Fatal("v1 must not implement version")
	}

	// Swap in the v2 factory everywhere, keep serving during the upgrade.
	sys.RegisterFactory("Register", func(oid string) eternal.Replica { return &registerV2{} })
	upgradeDone := make(chan error, 1)
	go func() { upgradeDone <- sys.UpgradeGroup("reg") }()
	stop := make(chan struct{})
	servedCh := make(chan int, 1)
	go func() {
		served := 0
		defer func() { servedCh <- served }()
		for {
			select {
			case <-stop:
				return
			default:
				if got := getVal(t, obj); got == "" {
					return
				}
				served++
			}
		}
	}()
	if err := <-upgradeDone; err != nil {
		t.Fatal(err)
	}
	close(stop)
	served := <-servedCh

	// The state survived and the new operation exists.
	if got := getVal(t, obj); got != "pre-upgrade" {
		t.Fatalf("state after upgrade = %q", got)
	}
	out, err := obj.Invoke("version", nil)
	if err != nil {
		t.Fatalf("v2 version op: %v", err)
	}
	d := eternal.NewDecoder(out, eternal.BigEndian)
	if v, _ := d.ReadULong(); v != 2 {
		t.Fatalf("version = %d", v)
	}
	if served == 0 {
		t.Fatal("no invocations served during the upgrade")
	}
	t.Logf("served %d invocations during the live upgrade", served)
}
