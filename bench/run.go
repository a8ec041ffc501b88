package main

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"eternal"
)

// span of time inside one repetition, relative to its epoch.
type window struct{ From, To time.Duration }

func (w window) length() time.Duration { return w.To - w.From }

func (w window) holds(t time.Duration) bool { return t >= w.From && t < w.To }

// overlaps reports whether the request that started at `at` and took
// `lat` was in flight at any point of w.
func (w window) overlaps(at, lat time.Duration) bool { return at < w.To && at+lat > w.From }

// repResult is everything one repetition on one fresh cluster observed.
type repResult struct {
	SetupS  float64
	Steady  window
	Churn   window
	Samples []sample // every client's, ordered by At within a client
	// Clients holds the same samples, one slice per client connection.
	Clients    [][]sample
	Recoveries []window // RecoverReplica call to return
	Violations []string
	// Acked and Attempted count every invocation of the repetition,
	// warm-up included: the servant's final count must lie between them.
	Acked, Attempted uint64
	Final            stateID
	Epoch            time.Time    // wall-clock time of offset 0
	Probe            *probeResult // traced repetitions only
}

// replyCheck verifies one client's replies: a ping reply is the servant's
// count after the write, so the values one client sees strictly increase;
// an echo reply is its arguments.
type replyCheck struct {
	last uint64
}

func (c *replyCheck) ping(out []byte) error {
	v, err := eternal.NewDecoder(out, eternal.BigEndian).ReadULongLong()
	if err != nil {
		return fmt.Errorf("ping reply: %w", err)
	}
	if v <= c.last {
		return fmt.Errorf("ping reply %d after %d: one client's replies must strictly increase", v, c.last)
	}
	c.last = v
	return nil
}

func (c *replyCheck) echo(args, out []byte) error {
	if !bytes.Equal(args, out) {
		return fmt.Errorf("echo reply differs from its %d-byte argument", len(args))
	}
	return nil
}

// echoSizes are the argument sizes of the echo clients, drawn by seed.
var echoSizes = []int{64, 256, 1024}

// payloads is a seeded table of echo arguments one client cycles through.
func payloads(rng *rand.Rand) [][]byte {
	table := make([][]byte, 64)
	for i := range table {
		table[i] = make([]byte, echoSizes[rng.Intn(len(echoSizes))])
		rng.Read(table[i])
	}
	return table
}

// violations collects correctness failures from every goroutine of a
// repetition.
type violations struct {
	mu   sync.Mutex
	list []string
}

func (v *violations) add(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.list) < 20 { // the first few name the fault; the rest repeat it
		v.list = append(v.list, fmt.Sprintf(format, args...))
	}
}

// runRep measures one repetition of w on a fresh cluster: set-up, warm-up,
// the steady window, the churn window, quiesce, correctness check. It
// returns an error only when the cluster cannot be built or driven at all;
// failed invocations and correctness violations are part of the result.
func runRep(w workload, seed int64, span time.Duration, tr *tracer) (res *repResult, err error) {
	rng := rand.New(rand.NewSource(seed))
	book := newLedger()
	blob := seededBlob(seed, w.Blob)
	viol := &violations{}
	res = &repResult{}

	repSpan := tr.begin("rep:"+w.Name, 0, 0)
	defer func() { tr.end(repSpan) }()

	// --- set-up: NewSystem to the first successful reply ---
	setupSpan := tr.begin("setup", repSpan.ID, 0)
	t0 := time.Now()
	step := tr.begin("NewSystem", setupSpan.ID, 0)
	sys, err := eternal.NewSystem(systemConfig(w.Nodes))
	tr.end(step)
	if err != nil {
		return nil, fmt.Errorf("NewSystem: %w", err)
	}
	defer sys.Shutdown()
	for _, nd := range w.Nodes {
		sys.Node(nd).RegisterFactory(typeName, book.factory(nd, blob))
	}
	step = tr.begin("CreateGroup", setupSpan.ID, 0)
	err = sys.CreateGroup(eternal.GroupSpec{
		Name: groupName, TypeName: typeName,
		Props: eternal.Properties{
			Style: w.Style, InitialReplicas: len(w.Nodes), MinReplicas: 1,
			CheckpointInterval: w.Checkpoint,
		},
		Nodes: w.Nodes,
	})
	tr.end(step)
	if err != nil {
		return nil, fmt.Errorf("CreateGroup: %w", err)
	}
	type conn struct {
		spec  clientSpec
		obj   *eternal.ObjectRef
		check replyCheck
		args  [][]byte
	}
	conns := make([]*conn, len(w.Clients))
	for i, cs := range w.Clients {
		step = tr.begin("Resolve", setupSpan.ID, 0)
		cl, err := sys.Client(cs.Node, fmt.Sprintf("driver%d", i))
		if err != nil {
			return nil, fmt.Errorf("Client: %w", err)
		}
		defer cl.Close()
		obj, err := cl.Resolve(groupName)
		tr.end(step)
		if err != nil {
			return nil, fmt.Errorf("Resolve: %w", err)
		}
		conns[i] = &conn{spec: cs, obj: obj, args: payloads(rand.New(rand.NewSource(seed + int64(i) + 1)))}
	}
	var acked, attempted uint64 // set-up invocations; the loops count their own
	for _, c := range conns {
		step = tr.begin("first-reply", setupSpan.ID, 0)
		attempted++
		out, err := c.obj.InvokeTimeout("ping", nil, invokeTimeout)
		tr.end(step)
		if err != nil {
			return nil, fmt.Errorf("first invocation on %s: %w", c.spec.Node, err)
		}
		acked++
		if err := c.check.ping(out); err != nil {
			viol.add("%s: %v", c.spec.Node, err)
		}
	}
	res.SetupS = time.Since(t0).Seconds()
	tr.end(setupSpan)

	// --- the timeline of the repetition ---
	churnLen := time.Duration(float64(span) * w.ChurnShare)
	res.Steady = window{warmup, warmup + span - churnLen}
	res.Churn = window{res.Steady.To, res.Steady.To + churnLen}
	clk := realClock{epoch: time.Now()}
	res.Epoch = clk.epoch

	plannedEnd := res.Churn.To
	var probe *prober
	if tr != nil {
		probe = startProbe(sys, w, clk, res.Steady)
	}

	// --- foreground load ---
	stop := make(chan struct{})
	perClient := make([][]sample, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		call := func(k int) bool {
			var args []byte
			if c.spec.Op == "echo" {
				args = c.args[k%len(c.args)]
			}
			out, err := c.obj.InvokeTimeout(c.spec.Op, args, invokeTimeout)
			if err != nil {
				return false
			}
			if c.spec.Op == "echo" {
				err = c.check.echo(args, out)
			} else {
				err = c.check.ping(out)
			}
			if err != nil {
				viol.add("client %d on %s, request %d: %v", i, c.spec.Node, k, err)
			}
			return true
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.OpenRate > 0 {
				perClient[i] = openLoop(clk, w.OpenRate, 0, plannedEnd, call)
			} else {
				perClient[i] = closedLoop(clk, stop, call)
			}
		}()
	}

	// --- churn: kill and recover one replica under the same load ---
	if probe != nil {
		clk.WaitUntil(res.Steady.From)
		probe.snap(0)
	}
	clk.WaitUntil(res.Churn.From)
	if probe != nil {
		probe.snap(1)
	}
	var churnErr error
	if w.ChurnNode != "" {
		churnSpan := tr.begin("churn", repSpan.ID, 0)
		churnErr = churn(sys, w, rng, clk, res, tr, churnSpan.ID)
		tr.end(churnSpan)
	}
	clk.WaitUntil(plannedEnd)
	res.Churn.To = clk.Now() // the last recovery may have run past the plan
	close(stop)
	wg.Wait()
	if probe != nil {
		res.Probe = probe.finish()
	}
	if churnErr != nil {
		viol.add("churn: %v", churnErr)
	}

	for i, ss := range perClient {
		for k, s := range ss {
			attempted++
			if s.OK {
				acked++
			}
			tr.invocation(uint64(i)<<32|uint64(k), repSpan.ID, clk.epoch, s)
		}
		res.Samples = append(res.Samples, ss...)
	}
	res.Clients = perClient
	res.Acked, res.Attempted = acked, attempted

	// --- quiesce, then check what the replicas hold ---
	q := tr.begin("quiesce", repSpan.ID, 0)
	live := quiesce(sys, book, acked)
	tr.end(q)
	book.mu.Lock()
	// Copies: the audit keeps capturing states until the system stops.
	in := checkInput{Live: live, Acked: acked, Attempted: attempted, Captures: maps.Clone(book.captures), Applies: slices.Clone(book.applies)}
	book.mu.Unlock()
	for _, v := range check(in) {
		viol.add("%s", v)
	}
	if len(live) > 0 {
		res.Final = live[0].State
	}
	res.Violations = viol.list
	if len(res.Violations) > 0 {
		forensics(sys, os.Stderr)
	}
	return res, nil
}

// forensics prints every node's flight-recorder feed, so that a run whose
// checks failed says what the cluster went through.
func forensics(sys *eternal.System, w io.Writer) {
	nodes := sys.Nodes()
	slices.Sort(nodes)
	for _, nd := range nodes {
		for _, ev := range sys.Node(nd).Events(0, 0) {
			fmt.Fprintf(w, "bench: forensics %s seq=%d %s %s group=%s node=%s %s\n",
				nd, ev.Seq, ev.At.Format("15:04:05.000"), ev.Type, ev.Group, ev.Node, ev.Detail)
		}
	}
}

// churn runs kill/recover cycles on w.ChurnNode until the churn window is
// used up, timing each RecoverReplica from call to return.
func churn(sys *eternal.System, w workload, rng *rand.Rand, clk clock, res *repResult, tr *tracer, parent uint64) error {
	node := sys.Node(w.ChurnNode)
	var longest time.Duration
	for cycle := uint64(1); ; cycle++ {
		pause := w.SpacingLo + time.Duration(rng.Int63n(int64(w.SpacingHi-w.SpacingLo)+1))
		// Start a cycle only if it should end inside the window.
		if clk.Now()+pause+longest > res.Churn.To && len(res.Recoveries) > 0 {
			return nil
		}
		clk.WaitUntil(clk.Now() + pause)
		s := tr.begin("KillReplica", parent, cycle)
		err := node.KillReplica(groupName, adminTimeout)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("KillReplica cycle %d: %w", cycle, err)
		}
		s = tr.begin("RecoverReplica", parent, cycle)
		from := clk.Now()
		err = node.RecoverReplica(groupName, adminTimeout)
		to := clk.Now()
		tr.end(s)
		if err != nil {
			return fmt.Errorf("RecoverReplica cycle %d: %w", cycle, err)
		}
		res.Recoveries = append(res.Recoveries, window{from, to})
		longest = max(longest, to-from)
	}
}

// quiesce waits, after the clients have stopped, until every live replica
// holds the same state and that state has every acknowledged write, or
// until it has waited long enough that they never will.
func quiesce(sys *eternal.System, book *ledger, acked uint64) []liveState {
	deadline := time.Now().Add(5 * time.Second)
	for {
		var live []liveState
		for _, nd := range sys.Nodes() {
			if n := sys.Node(nd); n != nil && n.HostsReplica(groupName) {
				if inst := book.instance(nd); inst != nil {
					live = append(live, liveState{Node: nd, State: inst.state()})
				}
			}
		}
		slices.SortFunc(live, func(a, b liveState) int { return strings.Compare(a.Node, b.Node) })
		if agree(live) && len(live) > 0 && live[0].State.Count >= acked {
			return live
		}
		if time.Now().After(deadline) {
			return live
		}
		time.Sleep(20 * time.Millisecond)
	}
}
