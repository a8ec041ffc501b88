package totem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eternal/internal/simnet"
)

// classicRing starts one processor per address on net, each configured by
// mod, and waits for the full view.
func classicRing(t *testing.T, net *simnet.Network, mod func(addr string, cfg *Config), addrs ...string) map[string]*Processor {
	t.Helper()
	procs := make(map[string]*Processor)
	for _, a := range addrs {
		ep, err := net.Join(a)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig(NewSimnetTransport(ep))
		if mod != nil {
			mod(a, &cfg)
		}
		p, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		procs[a] = p
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Stop()
		}
	})
	for _, p := range procs {
		awaitView(t, p, addrs, 5*time.Second)
	}
	return procs
}

// TestWithdrawnMessageIsNeverSent: a message whose sender withdraws it
// before the token visit is dropped whole — never delivered anywhere,
// gone from the pending count — and the messages around it are untouched.
func TestWithdrawnMessageIsNeverSent(t *testing.T) {
	procs := classicRing(t, simnet.New(simnet.Config{}), nil, "a", "b")
	a, b := procs["a"], procs["b"]
	big := make([]byte, 3*a.tr.MTU()) // multi-chunk
	yes := func() bool { return true }
	if err := a.Multicast([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := a.MulticastWithdrawable([]byte("small"), 0, true, yes); err != nil {
		t.Fatal(err)
	}
	if err := a.MulticastWithdrawable(big, 0, true, yes); err != nil {
		t.Fatal(err)
	}
	if err := a.Multicast([]byte("after")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Processor{a, b} {
		ds := collect(t, p, 2, 3*time.Second)
		if string(ds[0].Payload) != "before" || string(ds[1].Payload) != "after" {
			t.Fatalf("%s delivered %q, %q", p.Addr(), ds[0].Payload, ds[1].Payload)
		}
	}
	st := a.Stats()
	if st.WithdrawnMessages != 2 {
		t.Fatalf("WithdrawnMessages = %d, want 2", st.WithdrawnMessages)
	}
	if st.ChunksSent != 2 {
		t.Fatalf("ChunksSent = %d, want 2: a withdrawn message reached the wire", st.ChunksSent)
	}
	if n := a.mPending.Value(); n != 0 {
		t.Fatalf("sequencer queue depth = %d after withdrawal, want 0", n)
	}
	select {
	case d := <-b.Deliveries():
		if d.View == nil {
			t.Fatalf("withdrawn message delivered: %d bytes", len(d.Payload))
		}
	case <-time.After(50 * time.Millisecond):
	}
}

// TestWithdrawalStopsAtFirstChunk: once a token visit has sequenced a
// message's first chunk, a later "yes" from the sender changes nothing —
// the remaining chunks follow on later visits and the message is
// delivered whole.
func TestWithdrawalStopsAtFirstChunk(t *testing.T) {
	procs := classicRing(t, simnet.New(simnet.Config{}), func(_ string, cfg *Config) {
		cfg.window = 2 // a 5-chunk message needs three visits
	}, "a", "b")
	a, b := procs["a"], procs["b"]
	msg := make([]byte, 4*a.tr.MTU())
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	var polls atomic.Int32
	err := a.MulticastWithdrawable(msg, 0, true, func() bool {
		return polls.Add(1) > 1 // "no" when chunk 0 is sequenced, "yes" ever after
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, b, 1, 3*time.Second)[0].Payload
	if string(got) != string(msg) {
		t.Fatalf("delivered %d bytes, want the whole %d-byte message", len(got), len(msg))
	}
	if st := a.Stats(); st.WithdrawnMessages != 0 {
		t.Fatalf("WithdrawnMessages = %d for a message already on the wire", st.WithdrawnMessages)
	}
	if n := polls.Load(); n != 1 {
		t.Fatalf("withdraw polled %d times, want once (at chunk 0 only)", n)
	}
}

// keyedNode is one member of the withdrawal invariant test: it submits its
// own copy of every key, like a replica multicasting its copy of a reply,
// and withdraws a copy once any member's copy of that key is ordered here.
type keyedNode struct {
	addr string
	idx  byte
	p    *Processor

	mu        sync.Mutex
	seen      map[uint32]bool // keys ordered at this member (Ordered hook)
	withdrawn map[uint32]bool // own copies the withdraw callback gave up
	order     []keyedCopy     // deliveries, in order
	reset     bool            // a view cut this member off its lineage
	bad       string          // first corrupt payload seen
}

// keyedCopy names one member's copy of one key.
type keyedCopy struct {
	sender string
	key    uint32
}

func keyedPayload(idx byte, key uint32, chunkSize int) []byte {
	size := 16
	if key%3 == 0 {
		size = 3*chunkSize + 100 // four chunks
	}
	buf := make([]byte, size)
	binary.BigEndian.PutUint32(buf, key)
	buf[4] = idx
	for i := 5; i < size; i++ {
		buf[i] = byte(uint32(i)*31 + key + uint32(idx))
	}
	return buf
}

func keyedChunks(key uint32) uint64 {
	if key%3 == 0 {
		return 4
	}
	return 1
}

func (n *keyedNode) ordered(d *Delivery) {
	n.mu.Lock()
	n.seen[binary.BigEndian.Uint32(d.Payload)] = true
	n.mu.Unlock()
}

func (n *keyedNode) consume(chunkSize int) {
	for d := range n.p.Deliveries() {
		n.mu.Lock()
		switch {
		case d.View != nil:
			n.reset = n.reset || d.View.Reset
		case len(d.Payload) < 5:
			n.bad = fmt.Sprintf("%d-byte payload from %s", len(d.Payload), d.Sender)
		default:
			key, idx := binary.BigEndian.Uint32(d.Payload), d.Payload[4]
			if string(d.Payload) != string(keyedPayload(idx, key, chunkSize)) && n.bad == "" {
				n.bad = fmt.Sprintf("key %d from %s: %d bytes do not match what was submitted", key, d.Sender, len(d.Payload))
			}
			n.order = append(n.order, keyedCopy{d.Sender, key})
		}
		n.mu.Unlock()
	}
}

// TestWithdrawalInvariantsUnderLossAndReformation is the totem-level safety
// net for withdrawal and for the submission classes: four members each
// submit a copy of every key — urgent, lazy or bulk by turns — and withdraw
// it (bulk copies excepted) when a peer's copy is ordered first, on a
// medium losing 15 % of all frames, while one member is killed mid-run. The
// survivors must
// agree on one delivery order; every copy a survivor submitted is either
// delivered exactly once or was withdrawn, never both, never neither;
// every key gets through; every payload is intact; and no message is ever
// half-sent — the chunks a survivor put on the wire are exactly the chunks
// of its delivered messages.
func TestWithdrawalInvariantsUnderLossAndReformation(t *testing.T) {
	const keys = 90
	net := simnet.New(simnet.Config{Seed: 11})
	addrs := []string{"a", "b", "c", "d"}
	nodes := make(map[string]*keyedNode)
	for i, a := range addrs {
		nodes[a] = &keyedNode{addr: a, idx: byte(i), seen: make(map[uint32]bool), withdrawn: make(map[uint32]bool)}
	}
	procs := classicRing(t, net, func(addr string, cfg *Config) {
		cfg.window = 3 // four-chunk messages span token visits
		cfg.Ordered = nodes[addr].ordered
	}, addrs...)
	chunkSize := procs["a"].tr.MTU() - fragMargin - 1
	for a, n := range nodes {
		n.p = procs[a]
		go n.consume(chunkSize)
	}
	net.SetLossRate(0.15)

	var submitters sync.WaitGroup
	for _, n := range nodes {
		n := n
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for key := uint32(0); key < keys; key++ {
				key := key
				payload := keyedPayload(n.idx, key, chunkSize)
				withdraw := func() bool {
					n.mu.Lock()
					defer n.mu.Unlock()
					if n.seen[key] {
						n.withdrawn[key] = true
					}
					return n.seen[key]
				}
				// Every key goes through every lane at some member.
				var err error
				switch (key + uint32(n.idx)) % 4 {
				case 1:
					err = n.p.MulticastLazy(payload, 0, withdraw)
				case 2:
					err = n.p.MulticastBulk(payload) // cannot be withdrawn: always delivered
				default:
					err = n.p.MulticastWithdrawable(payload, 0, true, withdraw)
				}
				if err != nil {
					return // the member that gets killed
				}
				time.Sleep(time.Duration(300+100*int(n.idx)) * time.Microsecond)
			}
		}()
	}
	// Kill d once half the keys are ordered at a: the ring reforms under
	// loss with withdrawals in flight on every survivor.
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		nodes["a"].mu.Lock()
		half := len(nodes["a"].seen) >= keys/2
		nodes["a"].mu.Unlock()
		if half {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first half of the keys never got ordered")
		}
	}
	procs["d"].Stop()
	submitters.Wait()

	survivors := []*keyedNode{nodes["a"], nodes["b"], nodes["c"]}
	// Quiesce: nothing pending anywhere and the delivery count at rest.
	settled, last := 0, -1
	for deadline := time.Now().Add(30 * time.Second); settled < 10; time.Sleep(20 * time.Millisecond) {
		total, pending := 0, int64(0)
		for _, n := range survivors {
			n.mu.Lock()
			total += len(n.order)
			n.mu.Unlock()
			pending += n.p.mPending.Value()
		}
		if pending == 0 && total == last {
			settled++
		} else {
			settled, last = 0, total
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never quiesced: %d chunks pending, %d deliveries", pending, total)
		}
	}
	net.SetLossRate(0)

	// The ring is at rest: hold every survivor's lock for the checks.
	for _, n := range survivors {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.reset {
			t.Skipf("%s was cut off its lineage by the lossy medium; the invariants hold within a lineage only", n.addr)
		}
		if n.bad != "" {
			t.Fatalf("%s: corrupt delivery: %s", n.addr, n.bad)
		}
	}
	ref := survivors[0].order
	for _, n := range survivors[1:] {
		if len(n.order) != len(ref) {
			t.Fatalf("agreed order: %s delivered %d messages, a delivered %d", n.addr, len(n.order), len(ref))
		}
		for i := range ref {
			if n.order[i] != ref[i] {
				t.Fatalf("agreed order: position %d is %v at %s, %v at a", i, n.order[i], n.addr, ref[i])
			}
		}
	}
	delivered := make(map[keyedCopy]bool)
	keySeen := make(map[uint32]bool)
	for _, id := range ref {
		if delivered[id] {
			t.Fatalf("duplicate: %v delivered twice", id)
		}
		delivered[id] = true
		keySeen[id.key] = true
	}
	withdrawals := 0
	for key := uint32(0); key < keys; key++ {
		if !keySeen[key] {
			for _, n := range survivors {
				t.Logf("%s: seen=%v withdrawn=%v stats=%+v", n.addr, n.seen[key], n.withdrawn[key], n.p.Stats())
			}
			t.Fatalf("gap: no copy of key %d was delivered", key)
		}
		for _, n := range survivors {
			got, gone := delivered[keyedCopy{n.addr, key}], n.withdrawn[key]
			if got == gone {
				t.Fatalf("%s's copy of key %d: delivered=%v withdrawn=%v, want exactly one", n.addr, key, got, gone)
			}
			if gone {
				withdrawals++
			}
		}
	}
	if withdrawals == 0 {
		t.Fatal("no copy was ever withdrawn: the test exercised nothing")
	}
	var lazy, bulk uint64
	for _, n := range survivors {
		st := n.p.Stats()
		lazy += st.LazySent + st.LazyDropped
		bulk += st.BulkPromoted
	}
	if lazy == 0 || bulk == 0 {
		t.Fatalf("%d lazy and %d bulk messages left their lanes: the test exercised one of them not at all", lazy, bulk)
	}
	for _, n := range survivors {
		var want uint64
		for key := uint32(0); key < keys; key++ {
			if !n.withdrawn[key] {
				want += keyedChunks(key)
			}
		}
		st := n.p.Stats()
		if st.ChunksSent != want {
			t.Fatalf("%s put %d chunks on the wire, its delivered messages have %d: a message was half-sent", n.addr, st.ChunksSent, want)
		}
		if int(st.WithdrawnMessages) != len(n.withdrawn) {
			t.Fatalf("%s: WithdrawnMessages = %d, callback withdrew %d", n.addr, st.WithdrawnMessages, len(n.withdrawn))
		}
	}
	t.Logf("%d deliveries agreed by 3 survivors, %d copies withdrawn, retransmits a=%d", len(ref), withdrawals, survivors[0].p.Stats().Retransmits)
}

// TestNudgeOnlyWhenTokenLeftIdle: a member that sends, takes delivery and
// sends again never needs a nudge — the token left it with IdleHops == 0,
// so the only member that can park it is the sender itself. The old
// one-nudge-per-tick rule broadcast a hurry for every tick of such a loop.
func TestNudgeOnlyWhenTokenLeftIdle(t *testing.T) {
	procs := classicRing(t, simnet.New(simnet.Config{}), nil, "a", "b", "c")
	a := procs["a"]
	const sends = 400
	start := time.Now()
	for i := 0; i < sends; i++ {
		if err := a.Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		collect(t, a, 1, 3*time.Second)
	}
	// A send can still find the token gone idle (this goroutine lost the
	// processor for more than a tick); allow a few.
	if h := a.Stats().HurriesSent; h > sends/20 {
		t.Fatalf("%d nudges for %d back-to-back sends in %v: nudging is not need-based", h, sends, time.Since(start))
	}
}

// TestHurriedClearedOnEveryForward: a nudge that arrives while the token is
// still busy (IdleHops < members, so the forward would not have paced
// anyway) is spent by that forward; it must not stay armed and cancel an
// unrelated park many rotations later. And the nudge rule: every departure
// buys one nudge, spent only for urgent work and only when the token may be
// held somewhere — it left here idle, or another member has been the only
// sender for idleGrace, which the member that wants the token may find out
// only from a frame that arrives after it enqueued.
func TestHurriedClearedOnEveryForward(t *testing.T) {
	p := offlineProcessor("a", "b", "c")
	now := time.Now()
	p.sched.lastActivityAt = now.Add(-time.Hour)
	urgent := func() submission { return submission{chunks: [][]byte{[]byte("x")}} }
	fromB := func(seq uint64) *dataMsg {
		return &dataMsg{Ring: p.ring, Seq: seq, Chunks: []chunk{{Sender: "b", MsgID: seq, FragTotal: 1, Payload: []byte("y")}}}
	}
	nudges := func() uint64 { return p.Stats().HurriesSent }

	p.sched.hurried = true
	p.forwardToken(&tokenMsg{Ring: p.ring, IdleHops: 0}, now, 0, p.cfg.window) // busy token: forwarded at wire speed regardless
	if p.sched.hurried {
		t.Fatal("hurried survived a forward that had no pacing to skip")
	}
	if p.parkedToken != nil {
		t.Fatal("busy token parked")
	}
	if !p.sched.canNudge || p.sched.leftIdle {
		t.Fatalf("canNudge=%v leftIdle=%v after a busy departure, want the nudge bought but no idle reason to spend it", p.sched.canNudge, p.sched.leftIdle)
	}

	// Urgent work behind a token that left busy, with no sole sender in
	// sight: the token is on its way, a nudge would only be in front of it.
	p.enqueue(urgent(), now)
	p.kick(classUrgent, now)
	if nudges() != 0 || !p.sched.wantToken {
		t.Fatalf("nudges=%d wantToken=%v, want the work noted and no nudge", nudges(), p.sched.wantToken)
	}
	p.handleData(fromB(1), now) // b starts a run: nobody has been alone for idleGrace yet
	if nudges() != 0 {
		t.Fatal("nudged a sender that has only just started")
	}
	p.sched.soleSince = now.Add(-time.Second) // b has been the only sender for a while: it may be resting
	p.handleData(fromB(2), now)
	if nudges() != 1 || p.sched.canNudge || !p.sched.hurried {
		t.Fatalf("nudges=%d canNudge=%v hurried=%v, want the one nudge sent when b's run was found out", nudges(), p.sched.canNudge, p.sched.hurried)
	}
	p.handleData(fromB(3), now)
	if nudges() != 1 {
		t.Fatal("a second nudge for the same token departure")
	}
	p.handleToken(&tokenMsg{Ring: p.ring, Round: 1, Seq: 3}, now)
	if p.sched.wantToken || p.sched.hurried || p.pending.Len() != 0 {
		t.Fatalf("wantToken=%v hurried=%v pending=%d after the visit that served the work", p.sched.wantToken, p.sched.hurried, p.pending.Len())
	}

	p.forwardToken(&tokenMsg{Ring: p.ring, IdleHops: 3}, now, 0, p.cfg.window) // idle rotation complete, no nudge pending: must pace
	if p.parkedToken == nil {
		t.Fatal("idle token not paced: a stale nudge cancelled the park")
	}
	p.sched.hurried = true
	p.releaseParked(now) // what handleHurry does on the holder
	if p.sched.hurried {
		t.Fatal("hurried survived the release of the parked token")
	}
	if !p.sched.canNudge || !p.sched.leftIdle {
		t.Fatal("a token that left idle did not arm the nudge")
	}
	p.enqueue(submission{chunks: [][]byte{[]byte("audit")}, class: classBackground}, now)
	p.kick(classBackground, now)
	if nudges() != 1 {
		t.Fatal("background work nudged")
	}
	p.enqueue(urgent(), now)
	p.kick(classUrgent, now)
	if nudges() != 2 {
		t.Fatal("urgent work behind a token that left idle did not nudge")
	}
}
