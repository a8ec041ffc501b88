package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
	"eternal/internal/obs"
	"eternal/internal/replication"
	"eternal/internal/totem"
)

// stallBlob is blobReplica with an operation "slowping" that takes delay
// (nanoseconds) longer than "ping" at this instance and is "ping" otherwise.
type stallBlob struct {
	*blobReplica
	delay *atomic.Int64
}

func (s stallBlob) Invoke(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
	if op == "slowping" {
		time.Sleep(time.Duration(s.delay.Load()))
		op = "ping"
	}
	return s.blobReplica.Invoke(op, args, order)
}

// transferCluster is a three-node domain with a 3-way active "blob" group
// of the given state size moved in 2 KiB chunks. It remembers each node's
// current replica instance, and n1's — the donor's — can be made slow.
type transferCluster struct {
	*testCluster
	mu    sync.Mutex
	live  map[string]*blobReplica
	delay atomic.Int64 // of n1's "slowping"
}

func newTransferCluster(t *testing.T, size int, mod func(*Config)) *transferCluster {
	t.Helper()
	tc := &transferCluster{live: make(map[string]*blobReplica)}
	tc.testCluster = newXferCluster(t, size, func(cfg *Config) {
		cfg.StateChunkBytes = 2048
		if mod != nil {
			mod(cfg)
		}
	}, "n1", "n2", "n3")
	for name, n := range tc.nodes {
		name, delay := name, new(atomic.Int64)
		if name == "n1" {
			delay = &tc.delay
		}
		n.RegisterFactory("Blob", func(string) ftcorba.Replica {
			b := newBlobReplica(size)
			tc.mu.Lock()
			tc.live[name] = b
			tc.mu.Unlock()
			return stallBlob{b, delay}
		})
	}
	createBlobGroup(t, tc.testCluster, "blob", 1, "n1", "n2", "n3")
	return tc
}

// pinger invokes op on "blob" from a client on node in a closed loop,
// pausing between invocations (and from pause to resume), and remembers
// when each one completed.
type pinger struct {
	mu   sync.Mutex
	done []time.Time
	// gate, while set, holds the client before its next invocation. A
	// paused client blocks on it, so it takes no processor from the ring it
	// is paused for: the machine may have two.
	gate chan struct{}
	stop func()
}

func (p *pinger) pause() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gate == nil {
		p.gate = make(chan struct{})
	}
}

func (p *pinger) resume() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gate != nil {
		close(p.gate)
		p.gate = nil
	}
}

func (tc *transferCluster) startPinger(node, op string, pause time.Duration) *pinger {
	tc.t.Helper()
	obj := tc.client(node, "driver-"+node, "blob")
	p := &pinger{}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-quit:
				return
			case <-time.After(pause):
			}
			p.mu.Lock()
			gate := p.gate
			p.mu.Unlock()
			if gate != nil {
				select {
				case <-quit:
					return
				case <-gate:
				}
			}
			if _, err := obj.Invoke(op, nil); err != nil {
				tc.t.Errorf("%s from %s: %v", op, node, err)
				return
			}
			p.mu.Lock()
			p.done = append(p.done, time.Now())
			p.mu.Unlock()
		}
	}()
	var once sync.Once
	p.stop = func() { once.Do(func() { close(quit); wg.Wait() }) }
	tc.t.Cleanup(p.stop)
	for deadline := time.Now().Add(5 * time.Second); p.between(time.Time{}, time.Now()) < 20; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			tc.t.Fatalf("client on %s is not being served", node)
		}
	}
	return p
}

// between counts the invocations completed in [from, to].
func (p *pinger) between(from, to time.Time) (n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, at := range p.done {
		if !at.Before(from) && !at.After(to) {
			n++
		}
	}
	return n
}

// transfer is what one kill-and-recover of n3's replica looked like at the
// donor: the window from its get_state to the ordered set_state, the token
// visits in it that found chunks waiting and how many of those held the
// token for a reply; the visits that left chunks waiting behind the quota,
// and the reply holds and their timeouts from the first chunk's delivery on.
type transfer struct {
	from, to                time.Time
	visits, held            int
	stalls, holds, timeouts uint64
}

// killAndRecover kills n3's replica and recovers it. A client given is kept
// quiet from the kill until the first chunk is delivered: the capture before
// it stalls the donor's servant for as long as it takes, and a hold that runs
// into its deadline then is the capture's doing, not the servant's.
func (tc *transferCluster) killAndRecover(quietUntilFirstChunk *pinger) transfer {
	tc.t.Helper()
	donor := tc.nodes["n1"]
	if quietUntilFirstChunk != nil {
		quietUntilFirstChunk.pause()
	}
	if err := tc.nodes["n3"].KillReplica("blob", 10*time.Second); err != nil {
		tc.t.Fatal(err)
	}
	var since uint64
	if evs := donor.Events(0, 0); len(evs) > 0 {
		since = evs[len(evs)-1].Index
	}
	stalls := donor.Stats().StateChunkStalls
	var first atomic.Pointer[totem.Stats]
	donor.setChunkHook(func(env *replication.Envelope) bool {
		if env.Kind == replication.KStateChunk && first.Load() == nil {
			st := donor.proc.Stats()
			first.Store(&st)
			if quietUntilFirstChunk != nil {
				quietUntilFirstChunk.resume()
			}
		}
		return true
	})
	defer donor.setChunkHook(nil)
	if err := tc.nodes["n3"].RecoverReplica("blob", 15*time.Second); err != nil {
		tc.t.Fatal(err)
	}
	// The receiver can be done before the donor's own loop has worked
	// through the stream it sent: the window closes at the donor's set_state.
	var x transfer
	for deadline := time.Now().Add(5 * time.Second); x.to.IsZero(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			tc.t.Fatal("the donor never ordered the transfer's set_state")
		}
		for _, ev := range donor.Events(since, 0) {
			switch {
			case ev.Group != "blob":
			case ev.Type == obs.EventGetState:
				x.from = ev.At
			case ev.Type == obs.EventSetState:
				x.to = ev.At
			}
		}
	}
	if x.from.IsZero() || !x.to.After(x.from) {
		tc.t.Fatalf("transfer window not observed: get_state at %v, set_state at %v", x.from, x.to)
	}
	after := donor.proc.Stats()
	x.stalls = donor.Stats().StateChunkStalls - stalls
	x.holds = after.ReplyHolds - first.Load().ReplyHolds
	x.timeouts = after.ReplyHoldTimeouts - first.Load().ReplyHoldTimeouts
	for _, r := range donor.TokenRotations(0) {
		if r.At.Before(x.from) || r.At.After(x.to) || r.BulkWaiting == 0 {
			continue
		}
		x.visits++
		if r.Resting == obs.RestReplyOwed {
			x.held++
		}
	}
	return x
}

// awaitSameState waits for n3's replica to have executed what n1's has, and
// compares their states.
func (tc *transferCluster) awaitSameState() {
	tc.t.Helper()
	state := func(node string) (uint64, []byte) {
		tc.mu.Lock()
		b := tc.live[node]
		tc.mu.Unlock()
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.n, bytes.Clone(b.state)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		n1, want := state("n1")
		n3, got := state("n3")
		if n1 == n3 && n1 > 0 {
			if !bytes.Equal(got, want) {
				tc.t.Fatalf("recovered replica's %d state bytes differ from the donor's %d", len(got), len(want))
			}
			return
		}
		if time.Now().After(deadline) {
			tc.t.Fatalf("recovered replica has executed %d invocations, the donor %d", n3, n1)
		}
	}
}

// TestTransferHoldsForEachReplyBeforeItsBurst: while the donor streams a
// state, a closed-loop client on its node is answered once per token visit,
// not once per two: every visit that sequences its request holds the token
// for the reply, none of those holds runs into its deadline, and the quota
// per visit is what it is with no client at all — the same transfer leaves
// chunks waiting on as many visits either way.
//
// How often the client is answered during one transfer is up to the Go
// scheduler. On this unthrottled medium the ring streams the state in a
// few milliseconds of frames handed from goroutine to goroutine, and a
// goroutine made runnable meanwhile — the client, or the loop that delivers
// its reply — can wait about as long for a processor: now and then a
// transfer ends with the client answered a handful of times. Every transfer
// is checked; transfers are repeated until the client has been answered
// during them minAnswered times.
func TestTransferHoldsForEachReplyBeforeItsBurst(t *testing.T) {
	const minAnswered, maxTransfers = 30, 10
	// A hold's deadline is one Tick, and prompt is to mean prompt under the
	// race detector too (see TestReplyHoldOnlyWhereOwnReplicaAnswers).
	tc := newTransferCluster(t, 256<<10, func(cfg *Config) {
		cfg.Totem.Tick, cfg.Totem.TokenLossTimeout = 20*time.Millisecond, time.Second
	})
	alone := tc.killAndRecover(nil)
	t.Logf("alone: %d visits with chunks waiting, %d stalls", alone.visits, alone.stalls)
	if alone.held != 0 {
		t.Fatalf("%d reply holds during a transfer with no client", alone.held)
	}
	client := tc.startPinger("n1", "ping", 0)
	answered := 0
	for transfers := 0; answered < minAnswered; transfers++ {
		if transfers == maxTransfers {
			t.Fatalf("the client was answered %d times during %d transfers: the test exercised nothing", answered, transfers)
		}
		beside := tc.killAndRecover(client)
		done := client.between(beside.from, beside.to)
		answered += done
		t.Logf("beside a client: %d visits, %d of them reply holds, %d stalls, %d invocations completed, %d holds and %d timeouts since the first chunk",
			beside.visits, beside.held, beside.stalls, done, beside.holds, beside.timeouts)
		// (Less one at either end of the window.)
		if beside.held < done-2 {
			t.Fatalf("%d reply holds with chunks waiting (%d since the first chunk) for %d invocations completed during the transfer", beside.held, beside.holds, done)
		}
		if beside.timeouts != 0 {
			t.Fatalf("%d reply holds ran into their deadline with a prompt servant", beside.timeouts)
		}
		// A quota that changed size would move the stalls, a token that left
		// a hold without its quota would add a visit per hold. (A few either
		// way: the lane may run dry while the dispatcher fills it.)
		if d := int64(beside.stalls) - int64(alone.stalls); d < -4 || d > 4 {
			t.Fatalf("chunks were left waiting on %d visits beside the client, %d without: the quota per visit moved", beside.stalls, alone.stalls)
		}
		if d := beside.visits - alone.visits; d < -4 || d > 4 {
			t.Fatalf("%d visits found chunks waiting beside the client (%d of them reply holds), %d without: a token left without its visit's quota",
				beside.visits, beside.held, alone.visits)
		}
	}
	client.stop()
	tc.awaitSameState()
}

// TestTransferStopsHoldingForASlowServant: a servant on the donor's node
// that takes five Ticks an operation is held for until one hold has run
// into its deadline, and not again — with chunks waiting or without — so
// the transfer completes at the ring's pace and the other node's client is
// served throughout. (Holds that a nudge or an arriving chunk ends at once
// teach nothing and may come before that one; see totem's
// TestReplyHoldStopsAtAServantSlowerThanARotation.)
func TestTransferStopsHoldingForASlowServant(t *testing.T) {
	tick := fastTotem().Tick
	tc := newTransferCluster(t, 512<<10, nil)
	donor := tc.nodes["n1"]
	peer := tc.startPinger("n2", "ping", 0)
	slow := tc.startPinger("n1", "slowping", 5*tick) // paced, so n1's replica keeps up with its slow operations
	before := donor.proc.Stats()
	tc.delay.Store(int64(5 * tick))

	// holdsAtTimeout is the donor's ReplyHolds when a hold was first seen to
	// have timed out, -1 until then.
	var holdsAtTimeout atomic.Int64
	holdsAtTimeout.Store(-1)
	quit := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-quit:
				return
			case <-time.After(tick / 10):
			}
			if st := donor.proc.Stats(); st.ReplyHoldTimeouts > before.ReplyHoldTimeouts {
				holdsAtTimeout.Store(int64(st.ReplyHolds))
				return
			}
		}
	}()

	x := tc.killAndRecover(nil)
	if got := peer.between(x.from, x.to); got < 10 {
		t.Fatalf("n2's client completed %d invocations during the transfer", got)
	}
	for n := slow.between(time.Time{}, time.Now()); slow.between(time.Time{}, time.Now()) < n+10; time.Sleep(tick) {
	}
	close(quit)
	watcher.Wait()
	end := donor.proc.Stats()
	t.Logf("%d slow invocations and %d of the peer's completed in the %v of the transfer; %d visits with chunks waiting, %d of them reply holds; %d holds and %d timeouts since the servant turned slow",
		slow.between(x.from, x.to), peer.between(x.from, x.to), x.to.Sub(x.from), x.visits, x.held,
		end.ReplyHolds-before.ReplyHolds, end.ReplyHoldTimeouts-before.ReplyHoldTimeouts)
	if got := end.ReplyHoldTimeouts - before.ReplyHoldTimeouts; got > 1 {
		t.Fatalf("%d holds ran into their deadline for a servant slower than a Tick: holding was not disarmed", got)
	}
	if at := holdsAtTimeout.Load(); at >= 0 && end.ReplyHolds != uint64(at) {
		t.Fatalf("%d more holds after the one that ran into its deadline", end.ReplyHolds-uint64(at))
	}
	slow.stop()
	peer.stop()
	tc.awaitSameState()
}
