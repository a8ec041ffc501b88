package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
	"eternal/internal/obs"
	"eternal/internal/orb"
	"eternal/internal/replication"
	"eternal/internal/simnet"
)

// gatedCounter is counter whose operations, once armed, wait for the gate:
// a replica that has the request and never gets to answer it.
type gatedCounter struct {
	counter
	armed atomic.Bool
	gate  chan struct{}
}

func (g *gatedCounter) Invoke(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
	if g.armed.Load() {
		<-g.gate
	}
	return g.counter.Invoke(op, args, order)
}

// tryAdd is add for goroutines that may not call t.Fatal.
func tryAdd(obj *orb.ObjectRef, delta int64) (int64, error) {
	out, err := obj.Invoke("add", encodeDelta(delta))
	if err != nil {
		return 0, err
	}
	return cdr.NewDecoder(out, cdr.BigEndian).ReadLongLong()
}

// TestLazyReplyAnswersWhenOriginReplicaDies: the client's own node hosts a
// replica, so the other replicas' replies are lazy — and that replica is
// killed with the request ordered and unanswered. Nothing withdraws the
// peers' copies, so one of them goes out once it is a tick old, and the
// client gets its answer: once, with every replica having executed once.
func TestLazyReplyAnswersWhenOriginReplicaDies(t *testing.T) {
	c := newTestCluster(t, simnet.Config{}, "n1", "n2", "n3")
	local := &gatedCounter{gate: make(chan struct{})}
	t.Cleanup(func() { close(local.gate) })
	c.nodes["n1"].RegisterFactory("Counter", func(string) ftcorba.Replica { return local })
	c.createGroup("ctr", ftcorba.Active, []string{"n1", "n2", "n3"}, 1)
	obj := c.client("n1", "driver", "ctr")
	if got := add(t, obj, 1); got != 1 {
		t.Fatalf("warm-up add = %d", got)
	}
	executed := func(nd string) uint64 { return c.nodes[nd].Stats().RequestsExecuted }
	awaitExecuted := func(want uint64, nodes ...string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if !slices.ContainsFunc(nodes, func(nd string) bool { return executed(nd) < want }) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("not every one of %v executed %d requests", nodes, want)
			}
		}
	}
	awaitExecuted(1, "n1", "n2", "n3")
	time.Sleep(20 * time.Millisecond) // the warm-up's lazy copies are seen to and gone
	before := c.nodes["n1"].Stats()
	sentBefore := c.nodes["n2"].proc.Stats().LazySent + c.nodes["n3"].proc.Stats().LazySent

	local.armed.Store(true)
	type result struct {
		v    int64
		err  error
		took time.Duration
	}
	res := make(chan result, 1)
	go func() {
		start := time.Now()
		v, err := tryAdd(obj, 1)
		res <- result{v, err, time.Since(start)}
	}()
	awaitExecuted(2, "n1", "n2", "n3") // ordered everywhere; n1's replica is inside the operation
	if err := c.nodes["n1"].KillReplica("ctr", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	var r result
	select {
	case r = <-res:
	case <-time.After(5 * time.Second):
		t.Fatal("no reply: the peers' lazy copies never went out")
	}
	if r.err != nil || r.v != 2 {
		t.Fatalf("add across the local replica's death = %d, %v; want 2", r.v, r.err)
	}
	t.Logf("answered from a peer's lazy reply after %v", r.took)
	if r.took > time.Second {
		t.Fatalf("reply took %v: a lazy reply goes out within a few ticks of aging", r.took)
	}
	time.Sleep(20 * time.Millisecond)
	after := c.nodes["n1"].Stats()
	if got := after.RepliesDelivered - before.RepliesDelivered; got != 1 {
		t.Fatalf("client received %d replies, want exactly 1", got)
	}
	for _, nd := range []string{"n1", "n2", "n3"} {
		if got := executed(nd); got != 2 {
			t.Fatalf("%s executed %d requests, want 2 (one per invocation)", nd, got)
		}
	}
	// A replica that finishes after a peer's copy is ordered submits none.
	if got := c.nodes["n2"].Stats().LazyReplies + c.nodes["n3"].Stats().LazyReplies; got == 0 {
		t.Fatal("n2 and n3 submitted no lazy reply")
	}
	if got := c.nodes["n1"].Stats().LazyReplies; got != 0 {
		t.Fatalf("n1 submitted %d lazy replies to its own client", got)
	}
	sent := c.nodes["n2"].proc.Stats().LazySent + c.nodes["n3"].proc.Stats().LazySent - sentBefore
	if sent == 0 {
		t.Fatal("the reply did not come from the lazy lane")
	}
}

// TestDonorNeverRestsDuringTransfer: the closed-loop client sits on the
// donor's node, so the donor is the ring's only sender and keeps the token
// between invocations — until a transfer starts. With state chunks waiting
// in the bulk lane no visit may pace the token or end in a sole sender's
// rest, or the transfer would advance one quota per Tick. What a visit may
// do is hold the token for the reply to a request it sequenced: that hold
// ends with the reply out (or at its deadline), and the visit's quota goes
// on the wire before the token leaves — so the transfer still takes one
// visit per quota, however many of them held. (The lane may run dry
// mid-transfer, when the ring drains it faster than the dispatcher fills
// it; a rest that begins then ends with the next chunk submitted.)
func TestDonorNeverRestsDuringTransfer(t *testing.T) {
	const chunkBytes = 2048
	c := newXferCluster(t, 256<<10, func(cfg *Config) {
		cfg.stateChunkBytes = chunkBytes
	}, "n1", "n2", "n3")
	createBlobGroup(t, c, "blob", 1, "n1", "n2", "n3")
	obj := c.client("n1", "driver", "blob")
	stop := make(chan struct{})
	var client sync.WaitGroup
	client.Add(1)
	go func() {
		defer client.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := obj.Invoke("ping", nil); err != nil {
				t.Errorf("ping: %v", err)
				return
			}
		}
	}()
	defer func() { close(stop); client.Wait() }()

	donor := c.nodes["n1"]
	for deadline := time.Now().Add(5 * time.Second); donor.proc.Stats().Rests < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the token never rested at the client's node: the test would prove nothing")
		}
	}
	if err := c.nodes["n3"].KillReplica("blob", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The window closes while the lane still holds a few visits' worth, so
	// a rest right after the manifest (legitimate) stays outside it.
	const lastWatched = 256<<10/chunkBytes - 8
	var nearEnd atomic.Int64
	c.nodes["n3"].setChunkHook(func(env *replication.Envelope) bool {
		if env.Kind == replication.KStateChunk && env.OpID == lastWatched {
			nearEnd.CompareAndSwap(0, time.Now().UnixNano())
		}
		return true
	})
	if err := c.nodes["n3"].RecoverReplica("blob", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	var from time.Time
	for _, ev := range donor.Events(0, 0) {
		if ev.Type == obs.EventGetState && ev.Group == "blob" {
			from = ev.At
		}
	}
	to := time.Unix(0, nearEnd.Load())
	if from.IsZero() || nearEnd.Load() == 0 || !to.After(from) {
		t.Fatalf("transfer window not observed: get_state at %v, chunk %d at %v", from, lastWatched, to)
	}
	const quota = 2 // totem's bulk messages per token visit
	visits, holds, rests := 0, 0, 0
	for _, r := range donor.TokenRotations(0) {
		if r.At.Before(from) || r.At.After(to) || r.BulkWaiting == 0 {
			if r.Resting != "" {
				rests++
			}
			continue
		}
		visits++
		switch {
		case r.Paced, r.Resting == obs.RestSoleSender:
			t.Fatalf("donor kept the token on round %d (paced %v, resting %q) with %d chunks waiting, %v into a %v transfer",
				r.Round, r.Paced, r.Resting, r.BulkWaiting, r.At.Sub(from), to.Sub(from))
		case r.Resting == obs.RestReplyOwed:
			holds++
		}
	}
	if visits < lastWatched/4 {
		t.Fatalf("only %d token visits left chunks waiting during the transfer of %d", visits, lastWatched)
	}
	// Every visit with chunks waiting, held or not, moves one quota before
	// its token leaves: the watched chunks cannot have taken more visits than
	// that — a few more when the lane ran dry while the dispatcher filled it,
	// not one more per hold.
	if visits > lastWatched/quota+6 {
		t.Fatalf("%d token visits (%d of them reply holds) for the first %d chunks at %d a visit: a token left without its visit's quota",
			visits, holds, lastWatched, quota)
	}
	if rests == 0 {
		t.Fatal("no rest profiled outside the transfer either: the rotation log does not cover the run")
	}
	t.Logf("%d token visits at the donor left chunks waiting in the %v of the transfer, %d held for a reply, none paced or rested; %d stalls, %d hold timeouts",
		visits, to.Sub(from), holds, donor.Stats().StateChunkStalls, donor.proc.Stats().ReplyHoldTimeouts)
	if donor.Stats().StateChunkStalls == 0 {
		t.Fatal("no visit left chunks waiting: the quota never bound, the test exercised no pacing")
	}
}
