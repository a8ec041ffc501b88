package totem

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eternal/internal/obs"
	"eternal/internal/simnet"
)

// frameCounter wraps a Transport and counts the frames it puts on the wire
// by packet type.
type frameCounter struct {
	Transport
	byType [16]atomic.Uint64
}

func (c *frameCounter) count(b []byte) {
	if len(b) > 0 && int(b[0]) < len(c.byType) {
		c.byType[b[0]].Add(1)
	}
}

func (c *frameCounter) Send(to string, b []byte) error {
	c.count(b)
	return c.Transport.Send(to, b)
}

func (c *frameCounter) Broadcast(b []byte) error {
	c.count(b)
	return c.Transport.Broadcast(b)
}

// restRing is classicRing with a Tick under which a rest is long enough to
// observe.
func restRing(t *testing.T, tick time.Duration, addrs ...string) map[string]*Processor {
	return classicRing(t, simnet.New(simnet.Config{}), func(_ string, cfg *Config) {
		cfg.Tick = tick
		cfg.TokenLossTimeout = 100 * tick
	}, addrs...)
}

// soleSender drives p in a closed loop — send, take delivery, send — until
// stop is closed, the way one serial client next to p would.
func soleSender(t *testing.T, p *Processor, stop chan struct{}, done *sync.WaitGroup) {
	done.Add(1)
	go func() {
		defer done.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.Multicast([]byte{'s', byte(i)}); err != nil {
				return
			}
			for got := false; !got; {
				select {
				case d, ok := <-p.Deliveries():
					if !ok {
						return
					}
					got = d.View == nil && d.Sender == p.Addr()
				case <-time.After(5 * time.Second):
					t.Error("sole sender's own message never came back")
					return
				}
			}
		}
	}()
}

// awaitPayload reads p's deliveries until one carries payload.
func awaitPayload(t *testing.T, p *Processor, payload string, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case d := <-p.Deliveries():
			if string(d.Payload) == payload {
				return
			}
		case <-deadline:
			t.Fatalf("%s never delivered %q", p.Addr(), payload)
		}
	}
}

// awaitRests waits until p has rested at least n times.
func awaitRests(t *testing.T, p *Processor, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); p.Stats().Rests < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s rested %d times, want %d: the sole sender's token does not rest", p.Addr(), p.Stats().Rests, n)
		}
	}
}

// TestSoleSenderTokenRests: with one member doing all the sending, the
// token stops going round for nothing. 2000 send-and-deliver cycles used
// to cost 2000 rotations (6000 token frames on a 3-ring); resting, the
// token goes round about once per Tick.
func TestSoleSenderTokenRests(t *testing.T) {
	var counters []*frameCounter
	procs := classicRing(t, simnet.New(simnet.Config{}), func(_ string, cfg *Config) {
		fc := &frameCounter{Transport: cfg.Transport}
		counters = append(counters, fc)
		cfg.Transport = fc
	}, "a", "b", "c")
	a := procs["a"]
	tokens := func() (n uint64) {
		for _, fc := range counters {
			n += fc.byType[ptToken].Load()
		}
		return n
	}
	cycle := func() {
		if err := a.Multicast([]byte("m")); err != nil {
			t.Fatal(err)
		}
		collect(t, a, 1, 3*time.Second)
	}
	// Nobody is the sole sender until idleGrace (2 ticks here) has passed.
	for warm := time.Now().Add(10 * time.Millisecond); time.Now().Before(warm); {
		cycle()
	}
	const sends = 2000
	tok0, rests0, start := tokens(), a.Stats().Rests, time.Now()
	for i := 0; i < sends; i++ {
		cycle()
	}
	elapsed := time.Since(start)
	tok, rests := tokens()-tok0, a.Stats().Rests-rests0
	t.Logf("%d sends in %v: %d token frames, %d rests", sends, elapsed, tok, rests)
	if rests == 0 {
		t.Fatal("the sole sender never rested the token")
	}
	// A rest ends at the first timer tick past its deadline, a Tick after
	// it began, so there cannot be more of them than ticks.
	if ticks := uint64(elapsed/a.cfg.Tick) + 2; rests > ticks {
		t.Fatalf("%d rests in %d ticks: a rest ended early with nobody asking for the token", rests, ticks)
	}
	if tok > sends/2 {
		t.Fatalf("%d token frames for %d sends: the token still goes round for (nearly) every message", tok, sends)
	}
	for _, addr := range []string{"b", "c"} {
		if h := procs[addr].Stats().HurriesSent; h != 0 {
			t.Fatalf("%s sent %d nudges with nothing to send", addr, h)
		}
	}
}

// TestSecondSenderServedAfterOneHurry: a member with urgent work does not
// wait out the sole sender's rest. It cannot see the token, but it sees
// that one peer has done all the sending for idleGrace — the condition
// under which that peer keeps it — and one nudge brings it over: the rest
// ends at the nudge, with its deadline still ahead.
func TestSecondSenderServedAfterOneHurry(t *testing.T) {
	a, b := offlineMember("a", "a", "b", "c"), offlineMember("b", "a", "b", "c")
	now := time.Now()
	one := func() submission { return submission{chunks: [][]byte{[]byte("x")}} }
	for _, p := range []*Processor{a, b} {
		p.sched.soleSender, p.sched.soleSince = "a", now.Add(-time.Second)
	}
	a.enqueue(one(), now)
	a.handleToken(&tokenMsg{Ring: a.ring, Round: 1}, now)
	if a.sched.resting != obs.RestSoleSender || wire(a) != "data" {
		t.Fatalf("resting = %q: the sole sender did not keep the token", a.sched.resting)
	}

	b.sched.canNudge = true // the token has left b since b's last nudge, and left busy
	for i := 0; i < 2; i++ {
		b.enqueue(one(), now)
		b.kick(classUrgent, now)
	}
	if n := b.Stats().HurriesSent; n != 1 || wire(b) != "hurry" {
		t.Fatalf("b sent %d nudges for two messages behind one token departure, want exactly one", n)
	}
	nudge := b.tr.(*recTransport).last.(*hurryMsg)

	at := now.Add(a.cfg.Tick / 4)
	a.handleHurry(nudge, at)
	if a.parkedToken != nil || wire(a) != "token" || !at.Before(a.sched.parkedUntil) {
		t.Fatalf("parked = %v, deadline in %v: the nudge did not release the rest", a.parkedToken != nil, a.sched.parkedUntil.Sub(at))
	}
	if st := a.Stats(); st.HurriesReceived != 1 || st.Rests != 1 {
		t.Fatalf("HurriesReceived = %d, Rests = %d, want one rest ended by one nudge", st.HurriesReceived, st.Rests)
	}
	b.handleToken(a.tr.(*recTransport).last.(*tokenMsg), at)
	if st := b.Stats(); st.ChunksSent != 2 || b.sched.wantToken {
		t.Fatalf("ChunksSent = %d, wantToken = %v: the token the nudge released did not serve b", st.ChunksSent, b.sched.wantToken)
	}
}

// TestRestNeverOutlivesOneTick: however busy the sole sender is, the token
// goes round once per Tick, so a peer's background message — which nudges
// nobody — is delivered, and garbage collection keeps up with the stream.
func TestRestNeverOutlivesOneTick(t *testing.T) {
	const tick = 20 * time.Millisecond
	procs := restRing(t, tick, "a", "b", "c")
	a, b := procs["a"], procs["b"]
	stop := make(chan struct{})
	var done sync.WaitGroup
	soleSender(t, a, stop, &done)
	awaitRests(t, a, 2)

	start := time.Now()
	if err := b.MulticastBackground([]byte("audit")); err != nil {
		t.Fatal(err)
	}
	awaitPayload(t, b, "audit", 3*time.Second)
	// Worst case: the rest has just begun (it ends at the first timer tick
	// past one Tick), and the visit after it only admits the message.
	if took := time.Since(start); took > 5*tick {
		t.Fatalf("background message took %v behind a resting token (Tick %v)", took, tick)
	}
	if n := b.Stats().HurriesSent; n != 0 {
		t.Fatalf("background traffic sent %d nudges", n)
	}
	awaitRests(t, a, a.Stats().Rests+6)
	close(stop)
	done.Wait()
	a.Stop() // its protocol state is safe to read once the run goroutine has exited
	if a.gcLow == 0 || a.gcLow < a.seqHigh/2 {
		t.Fatalf("gcLow = %d of %d sequenced: resting starves garbage collection", a.gcLow, a.seqHigh)
	}
}

// TestHurryInFlightPreventsRest: a nudge that reaches the sole sender
// before the token does must keep the token from resting when it arrives.
// The nudger has spent its one nudge; were the token to rest, the nudger
// would wait out the whole Tick.
func TestHurryInFlightPreventsRest(t *testing.T) {
	p := offlineProcessor("a", "b", "c")
	now := time.Now()
	p.sched.soleSender, p.sched.soleSince = "a", now.Add(-time.Second)
	one := func() submission { return submission{chunks: [][]byte{[]byte("x")}} }

	p.enqueue(one(), now)
	p.handleHurry(&hurryMsg{Ring: p.ring, Origin: "b"}, now) // the token is still on its way here
	p.handleToken(&tokenMsg{Ring: p.ring, Round: 1}, now)
	if p.parkedToken != nil || p.Stats().Rests != 0 {
		t.Fatal("token rested although a peer had nudged for it")
	}
	if p.sched.hurried {
		t.Fatal("hurried survived the forward it was meant for")
	}

	// The next visit finds nobody asking: the sole sender keeps the token,
	p.enqueue(one(), now)
	p.handleToken(&tokenMsg{Ring: p.ring, Round: 4, Seq: 1}, now)
	if p.parkedToken == nil || p.sched.resting != obs.RestSoleSender || p.Stats().Rests != 1 {
		t.Fatalf("sole sender did not rest: parked=%v resting=%v", p.parkedToken != nil, p.sched.resting)
	}
	// sequences its next message from it at once without extending the rest,
	until := p.sched.parkedUntil
	p.enqueue(one(), now.Add(time.Millisecond))
	p.kick(classUrgent, now.Add(time.Millisecond))
	if p.Stats().ChunksSent != 3 || p.pending.Len() != 0 {
		t.Fatalf("ChunksSent = %d, pending = %d: the resting token did not serve the enqueue", p.Stats().ChunksSent, p.pending.Len())
	}
	if p.parkedToken == nil || p.sched.parkedUntil != until {
		t.Fatal("serving an enqueue ended or extended the rest")
	}
	// and gives it up on a nudge, or when the deadline passes.
	p.onTick(until)
	if p.parkedToken != nil || p.sched.resting != "" {
		t.Fatal("rest outlived its deadline")
	}
	p.enqueue(one(), now)
	p.handleToken(&tokenMsg{Ring: p.ring, Round: 8, Seq: 3}, now)
	if p.sched.resting == "" {
		t.Fatal("sole sender did not rest again")
	}
	p.handleHurry(&hurryMsg{Ring: p.ring, Origin: "c"}, now)
	if p.parkedToken != nil {
		t.Fatal("a nudge did not release the resting token")
	}
}

// TestLazyMessageWaitsATickOffTheQueue: a lazy message neither wakes nor
// nudges the token, is not sent while younger than a Tick, is dropped and
// counted when withdrawn by then, and is sent when it is still wanted.
func TestLazyMessageWaitsATickOffTheQueue(t *testing.T) {
	p := offlineProcessor("a", "b", "c")
	now := time.Now()
	p.sched.lastActivityAt = now.Add(-time.Hour)
	lazy := func(payload string, withdrawn bool) submission {
		return submission{chunks: [][]byte{[]byte(payload)}, reply: true, class: classLazy,
			withdraw: func() bool { return withdrawn }}
	}
	// An idle token parked here stays parked.
	p.forwardToken(&tokenMsg{Ring: p.ring, IdleHops: 3}, now, 0, p.cfg.window)
	if p.parkedToken == nil {
		t.Fatal("idle token not paced")
	}
	parked := p.parkedToken
	p.parkedToken = nil
	p.transmitToken(parked, "b", now) // arms the nudge: the token left idle
	p.enqueue(lazy("gone", true), now)
	p.kick(classLazy, now)
	p.enqueue(lazy("kept", false), now)
	p.kick(classLazy, now)
	if p.Stats().HurriesSent != 0 || p.sched.wantToken {
		t.Fatal("a lazy message asked for the token")
	}
	if p.pending.Len() != 0 || p.lazy.Len() != 2 {
		t.Fatalf("pending = %d, lazy = %d: lazy messages belong in their own queue", p.pending.Len(), p.lazy.Len())
	}

	p.handleToken(&tokenMsg{Ring: p.ring, Round: 5}, now.Add(p.cfg.Tick/2))
	if st := p.Stats(); st.ChunksSent != 0 || st.LazySent != 0 || st.LazyDropped != 0 {
		t.Fatalf("a visit half a Tick later acted on the lazy queue: %+v", st)
	}
	// An urgent message submitted behind them overtakes them.
	p.enqueue(submission{chunks: [][]byte{[]byte("urgent")}}, now.Add(p.cfg.Tick/2))
	p.handleToken(&tokenMsg{Ring: p.ring, Round: 9}, now.Add(p.cfg.Tick/2))
	if st := p.Stats(); st.ChunksSent != 1 || p.lazy.Len() != 2 {
		t.Fatalf("ChunksSent = %d, lazy = %d: want the urgent message sent past two waiting lazy ones", st.ChunksSent, p.lazy.Len())
	}

	p.handleToken(&tokenMsg{Ring: p.ring, Round: 13, Seq: 1}, now.Add(p.cfg.Tick))
	st := p.Stats()
	if st.LazyDropped != 1 || st.WithdrawnMessages != 1 {
		t.Fatalf("LazyDropped = %d, WithdrawnMessages = %d, want the withdrawn one dropped and counted", st.LazyDropped, st.WithdrawnMessages)
	}
	if st.LazySent != 1 || st.ChunksSent != 2 || p.lazy.Len() != 0 {
		t.Fatalf("LazySent = %d, ChunksSent = %d, lazy = %d: the aged, still wanted message was not sent", st.LazySent, st.ChunksSent, p.lazy.Len())
	}
	if m := p.store[2]; m == nil || string(m.Chunks[0].Payload) != "kept" {
		t.Fatalf("seq 2 = %+v, want the lazy message that was not withdrawn", m)
	}
}

// TestBulkLanePromotesByQuota: each token visit lets bulkPerVisit whole
// messages from the bulk lane into the sending queue, counts a stall when
// that leaves some behind, and the token neither paces nor rests while
// any wait. Under the quota the lane is still bounded by the visit's
// flow-control window, so it cannot build a backlog in the sending queue.
func TestBulkLanePromotesByQuota(t *testing.T) {
	p := offlineProcessor("a", "b", "c")
	now := time.Now()
	p.sched.soleSender, p.sched.soleSince = "a", now.Add(-time.Second) // would rest, were it not for the bulk
	bulk := func(chunks int) submission {
		s := submission{class: classBulk}
		for i := 0; i < chunks; i++ {
			s.chunks = append(s.chunks, []byte{byte(i)})
		}
		return s
	}
	for i := 0; i < 5; i++ {
		p.enqueue(bulk(1), now)
	}
	if p.pending.Len() != 0 {
		t.Fatal("bulk went straight into the sending queue")
	}
	round := uint64(0)
	visit := func() {
		round += 3
		p.handleToken(&tokenMsg{Ring: p.ring, Round: round, Seq: p.seqHigh}, now)
	}
	for i, want := range []struct{ sent, promoted, stalls uint64 }{{2, 2, 1}, {4, 4, 2}, {5, 5, 2}} {
		visit()
		st := p.Stats()
		if st.ChunksSent != want.sent || st.BulkPromoted != want.promoted || st.BulkStalls != want.stalls {
			t.Fatalf("visit %d: sent %d promoted %d stalls %d, want %+v", i+1, st.ChunksSent, st.BulkPromoted, st.BulkStalls, want)
		}
		if i < 2 && p.parkedToken != nil {
			t.Fatalf("visit %d: token held with bulk waiting", i+1)
		}
	}

	q := offlineProcessor("a", "b", "c")
	q.cfg.window = 4
	for i := 0; i < 3; i++ {
		q.enqueue(bulk(5), now)
	}
	q.handleToken(&tokenMsg{Ring: q.ring, Round: 3}, now)
	if st := q.Stats(); st.BulkPromoted != 1 || st.ChunksSent != 4 || q.pending.Len() != 1 {
		t.Fatalf("promoted %d, sent %d, left %d: want one message let in (it fills the window), one visit's worth sent",
			st.BulkPromoted, st.ChunksSent, q.pending.Len())
	}
}

// TestBulkNeverInterleavesWithinASender: receivers reassemble per sender,
// so a sender's multi-fragment messages must reach the wire one after the
// other whatever lane they came through. Bulk and urgent four-fragment
// messages are submitted concurrently on a ring whose visits carry three
// chunks; every one must arrive whole, each class in submission order.
func TestBulkNeverInterleavesWithinASender(t *testing.T) {
	procs := classicRing(t, simnet.New(simnet.Config{}), func(_ string, cfg *Config) {
		cfg.window = 3
	}, "a", "b", "c")
	a, b := procs["a"], procs["b"]
	const each = 25
	payload := func(class byte, i int) []byte {
		buf := bytes.Repeat([]byte{class, byte(i)}, (3*a.tr.MTU()+200)/2)
		return buf
	}
	var submitters sync.WaitGroup
	for _, class := range []byte{'B', 'U'} {
		class := class
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for i := 0; i < each; i++ {
				var err error
				if class == 'B' {
					err = a.MulticastBulk(payload(class, i))
				} else {
					err = a.Multicast(payload(class, i))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	next := map[byte]int{}
	for _, d := range collect(t, b, 2*each, 20*time.Second) {
		class := d.Payload[0]
		if !bytes.Equal(d.Payload, payload(class, next[class])) {
			t.Fatalf("class %c message %d arrived damaged or out of order (%d bytes, starts %v)",
				class, next[class], len(d.Payload), d.Payload[:2])
		}
		next[class]++
	}
	submitters.Wait()
	if st := a.Stats(); st.BulkPromoted != each {
		t.Fatalf("BulkPromoted = %d, want %d", st.BulkPromoted, each)
	}
	for _, r := range a.Rotations(0) {
		if r.Resting != "" && r.PendingAfter > 0 {
			t.Fatalf("a rested on round %d with %d chunks left to send", r.Round, r.PendingAfter)
		}
	}
}

// markRequests is the ordered-point hook core installs, reduced to its
// effect here: addr's own messages whose payload starts with "req" are
// requests its own replica answers.
func markRequests(addr string) func(*Delivery) {
	return func(d *Delivery) {
		d.ReplyOwed = d.Sender == addr && bytes.HasPrefix(d.Payload, []byte("req"))
	}
}

// holdProcessor is offlineProcessor with that hook and a rotation log.
func holdProcessor() *Processor {
	p := offlineProcessor("a", "b", "c")
	p.rotations = obs.NewRotationLog(0)
	p.ordered = markRequests(p.addr)
	return p
}

func request() submission { return submission{chunks: [][]byte{[]byte("req")}} }
func reply() submission   { return submission{chunks: [][]byte{[]byte("rep")}, reply: true} }

// visit hands p the token for a new round, at now.
func visit(p *Processor, now time.Time) {
	p.handleToken(&tokenMsg{Ring: p.ring, Round: p.round + 3, Seq: p.seqHigh, Aru: p.myAru}, now)
}

// submit enqueues sub the way the run goroutine does.
func submit(p *Processor, sub submission, now time.Time) {
	p.enqueue(sub, now)
	p.kick(sub.class, now)
}

// TestReplyHoldServesReplyFromHeldToken: a visit that sequences a request
// this member's own replica answers ends with the token held; the reply is
// sequenced from it the moment it is enqueued, with no token frame in
// between, and then the token leaves — unless the member has meanwhile
// become the sole sender, whose rest the hold then turns into.
func TestReplyHoldServesReplyFromHeldToken(t *testing.T) {
	p := holdProcessor()
	now := time.Now()
	p.enqueue(request(), now)
	visit(p, now)
	if p.sched.resting != obs.RestReplyOwed || p.sched.owed != 1 || wire(p) != "data" {
		t.Fatalf("resting = %q, owed = %d: the token did not wait for the reply", p.sched.resting, p.sched.owed)
	}
	if got := p.Rotations(1)[0].Resting; got != obs.RestReplyOwed {
		t.Fatalf("rotation sample says resting = %q", got)
	}
	submit(p, reply(), now.Add(p.cfg.Tick/8))
	if got := wire(p); got != "data token" {
		t.Fatalf("wire = %q, want the reply from the held token and then the token", got)
	}
	if st := p.Stats(); p.parkedToken != nil || st.ReplyHolds != 1 || st.Rests != 0 || st.ReplyHoldTimeouts != 0 || !p.sched.holdPays(0) {
		t.Fatalf("parked = %v, stats %+v, disarmed = %v after a prompt reply", p.parkedToken != nil, st, !p.sched.holdPays(0))
	}

	p.enqueue(request(), now)
	visit(p, now)
	until := p.sched.parkedUntil
	p.sched.soleSender, p.sched.soleSince = "a", now.Add(-time.Second)
	submit(p, reply(), now.Add(p.cfg.Tick/8))
	if p.parkedToken == nil || p.sched.parkedUntil != until || wire(p) != "data data" {
		t.Fatal("the sole sender let the token go with its reply")
	}
	p.onTick(until)
	if p.Stats().ReplyHoldTimeouts != 0 || !p.sched.holdPays(0) {
		t.Fatal("a hold that became a rest counted its deadline as a timeout")
	}
}

// TestReplyGoesOutBeforeTheVisitsBulkQuota reads the wire of one token visit
// at a donor whose client's request is waiting: the request, then — from the
// held token, the quota still in its lane — the reply, then exactly the
// visit's quota of bulk, then the token. That holds for a member that is
// also the ring's only sender, whose hold must not slide into a rest with
// chunks waiting. A servant slower than a Tick gets the same order less the
// reply, once, and is not held for on the next visit.
func TestReplyGoesOutBeforeTheVisitsBulkQuota(t *testing.T) {
	p := holdProcessor()
	now := time.Now()
	p.sched.soleSender, p.sched.soleSince = "a", now.Add(-time.Second)
	for i := 0; i < 5; i++ {
		p.enqueue(submission{chunks: [][]byte{[]byte("state")}, class: classBulk}, now)
	}
	sentAs := func(seq uint64) string {
		var msgs []string
		for _, c := range p.store[seq].Chunks {
			msgs = append(msgs, string(c.Payload))
		}
		return strings.Join(msgs, " ")
	}

	p.enqueue(request(), now)
	visit(p, now)
	if got := wire(p); got != "data" || p.sched.resting != obs.RestReplyOwed || p.bulk.Len() != 5 {
		t.Fatalf("wire = %q, resting = %q, %d bulk waiting: want the request out and the token held with the quota not yet let in",
			got, p.sched.resting, p.bulk.Len())
	}
	if r := p.Rotations(1)[0]; r.Resting != obs.RestReplyOwed || r.BulkWaiting != 5 {
		t.Fatalf("rotation sample %+v: want a reply hold with 5 bulk messages waiting", r)
	}
	submit(p, reply(), now.Add(p.cfg.Tick/8))
	if got := wire(p); got != "data data token" || p.parkedToken != nil {
		t.Fatalf("wire = %q, parked = %v: want the reply, the quota, the token", got, p.parkedToken != nil)
	}
	if sentAs(1) != "req" || sentAs(2) != "rep" || sentAs(3) != "state state" {
		t.Fatalf("sequenced %q, %q, %q: want the request, the reply, then the quota's two chunks", sentAs(1), sentAs(2), sentAs(3))
	}
	if st := p.Stats(); st.BulkPromoted != 2 || st.BulkStalls != 1 || st.ReplyHolds != 1 || st.Rests != 0 || st.ReplyHoldTimeouts != 0 {
		t.Fatalf("stats %+v: want one hold, one quota of 2, one stall", st)
	}

	now = now.Add(10 * p.cfg.Tick)
	p.enqueue(request(), now)
	visit(p, now)
	p.onTick(p.sched.parkedUntil) // the servant takes longer than a Tick
	if got := wire(p); got != "data data token" || sentAs(5) != "state state" {
		t.Fatalf("wire = %q, seq 5 = %q: want the request, then at the deadline the quota and the token", got, sentAs(5))
	}
	if st := p.Stats(); st.BulkPromoted != 4 || st.BulkStalls != 2 || st.ReplyHoldTimeouts != 1 || p.sched.holdPays(1) {
		t.Fatalf("stats %+v, holdPays = %v after a hold that met its deadline", st, p.sched.holdPays(1))
	}
	submit(p, reply(), now.Add(3*p.cfg.Tick))

	now = now.Add(10 * p.cfg.Tick)
	p.enqueue(request(), now)
	visit(p, now)
	if got := wire(p); got != "data data token" || p.parkedToken != nil || sentAs(6) != "rep req" || sentAs(7) != "state" {
		t.Fatalf("wire = %q, parked = %v, sequenced %q, %q: want the late reply and the request in a frame, the last of the bulk, and the token forwarded at once",
			got, p.parkedToken != nil, sentAs(6), sentAs(7))
	}
	if st := p.Stats(); st.BulkPromoted != 5 || st.BulkStalls != 2 || st.ReplyHolds != 2 {
		t.Fatalf("stats %+v: want no third hold and the lane empty", st)
	}
}

// TestReplyHoldEnds: a hold ends at a hurry, at bulk arriving and at the
// first tick past its deadline, and does not begin with retransmission
// requests on the token; only the deadline counts as a timeout.
func TestReplyHoldEnds(t *testing.T) {
	held := func(t *testing.T) (*Processor, time.Time) {
		p := holdProcessor()
		now := time.Now()
		p.enqueue(request(), now)
		visit(p, now)
		if p.sched.resting != obs.RestReplyOwed || wire(p) != "data" {
			t.Fatalf("resting = %q: no hold to end", p.sched.resting)
		}
		return p, now.Add(p.cfg.Tick / 2)
	}
	released := func(t *testing.T, p *Processor, want string, timeouts uint64) {
		t.Helper()
		if got := wire(p); p.parkedToken != nil || got != want {
			t.Fatalf("parked = %v, wire = %q, want %q", p.parkedToken != nil, got, want)
		}
		if st := p.Stats(); st.ReplyHoldTimeouts != timeouts || p.sched.holdPays(0) == (timeouts > 0) {
			t.Fatalf("ReplyHoldTimeouts = %d, disarmed = %v, want %d timeouts", st.ReplyHoldTimeouts, !p.sched.holdPays(0), timeouts)
		}
	}
	t.Run("hurry", func(t *testing.T) {
		p, at := held(t)
		p.handleHurry(&hurryMsg{Ring: p.ring, Origin: "c"}, at)
		released(t, p, "token", 0)
	})
	t.Run("bulk", func(t *testing.T) {
		p, at := held(t)
		submit(p, submission{chunks: [][]byte{[]byte("state")}, class: classBulk}, at)
		released(t, p, "token", 0)
	})
	t.Run("deadline", func(t *testing.T) {
		p, at := held(t)
		p.onTick(at)
		if p.parkedToken == nil {
			t.Fatal("a tick inside the deadline ended the hold")
		}
		p.onTick(p.sched.parkedUntil)
		released(t, p, "token", 1)
	})
	t.Run("rtr", func(t *testing.T) {
		p := holdProcessor()
		now := time.Now()
		p.enqueue(request(), now)
		p.handleToken(&tokenMsg{Ring: p.ring, Round: 3, Rtr: []uint64{7}}, now)
		released(t, p, "data token", 0)
		if p.Stats().ReplyHolds != 0 {
			t.Fatal("held the token with retransmission requests on it")
		}
	})
}

// TestReplyHoldWaitsOnlyForTheArrivingVisit: a request sequenced from the
// held token is not waited for, so with many local clients a hold lasts as
// long as executing one visit's batch and no longer.
func TestReplyHoldWaitsOnlyForTheArrivingVisit(t *testing.T) {
	p := holdProcessor()
	now := time.Now()
	p.enqueue(request(), now)
	p.enqueue(request(), now)
	visit(p, now)
	if p.sched.owed != 2 {
		t.Fatalf("owed = %d, want the two requests the visit sequenced", p.sched.owed)
	}
	until := p.sched.parkedUntil
	submit(p, request(), now.Add(p.cfg.Tick/8)) // a third client; served in place
	if p.sched.owed != 2 || p.sched.parkedUntil != until || p.parkedToken == nil {
		t.Fatalf("owed = %d: a request sequenced from the held token extended the hold", p.sched.owed)
	}
	submit(p, reply(), now.Add(p.cfg.Tick/4))
	if p.parkedToken == nil {
		t.Fatal("the hold ended with one of the visit's two replies still owed")
	}
	submit(p, reply(), now.Add(p.cfg.Tick/4))
	if got := wire(p); p.parkedToken != nil || got != "data data data data token" {
		t.Fatalf("parked = %v, wire = %q: the token should leave with the batch's last reply", p.parkedToken != nil, got)
	}
}

// TestReplyHoldDisarmsOnLateReplyRearmsOnPromptOne: a hold is worth the
// rotation it saves the reply, so a servant slower than the token's usual
// absence — or one that never answers before the deadline — costs its
// peers one hold, not one per request, until it is prompt again.
func TestReplyHoldDisarmsOnLateReplyRearmsOnPromptOne(t *testing.T) {
	p := holdProcessor()
	// A frame from b before every request keeps the sole-sender rule out.
	now := time.Now().Add(-time.Hour)
	// invoke sequences a request ten Ticks on, with the token usually a
	// quarter Tick away, and submits the reply after the given delay.
	invoke := func(replyAfter time.Duration) (held bool) {
		now = now.Add(10 * p.cfg.Tick)
		p.handleData(&dataMsg{Ring: p.ring, Seq: p.seqHigh + 1, Chunks: []chunk{{Sender: "b", MsgID: p.seqHigh, FragTotal: 1, Payload: []byte("y")}}}, now)
		p.enqueue(request(), now)
		visit(p, now)
		p.sched.rotation = p.cfg.Tick / 4
		held = p.sched.resting == obs.RestReplyOwed
		if held && replyAfter >= p.cfg.Tick {
			p.onTick(p.sched.parkedUntil)
		}
		submit(p, reply(), now.Add(replyAfter))
		return held
	}
	if !invoke(3*p.cfg.Tick) || p.sched.holdPays(0) || p.Stats().ReplyHoldTimeouts != 1 {
		t.Fatal("a hold that met its deadline did not disarm")
	}
	// Slow again: the request's visit does not hold, the late reply does not re-arm.
	if invoke(p.cfg.Tick/2) || p.sched.holdPays(0) {
		t.Fatalf("disarmed = %v after a reply twice the token's absence behind its request", !p.sched.holdPays(0))
	}
	// Prompt: the reply re-arms, and the next request's visit holds.
	if invoke(p.cfg.Tick/8) || !p.sched.holdPays(0) {
		t.Fatalf("disarmed = %v after a prompt reply", !p.sched.holdPays(0))
	}
	// Late but inside the deadline: the hold ends with its reply, and is the last.
	if !invoke(p.cfg.Tick/2) || p.sched.holdPays(0) || wire(p) == "" {
		t.Fatalf("disarmed = %v after a hold twice as long as the rotation it saved", !p.sched.holdPays(0))
	}
	if invoke(p.cfg.Tick/8) || !invoke(p.cfg.Tick/8) {
		t.Fatal("no hold after re-arming")
	}
	if st := p.Stats(); st.ReplyHolds != 3 || st.ReplyHoldTimeouts != 1 || st.Rests != 0 {
		t.Fatalf("stats %+v: want three holds, one of them timed out", st)
	}
}

// TestReplyHoldStopsAtAServantSlowerThanARotation: a servant that takes half a
// Tick every time, on a ring whose token is usually a quarter Tick away. One
// reply that comes late to a hold still waiting for it disarms, and from
// then on no slow operation is held for. Nothing else about a slow operation
// disarms: not one whose request nudged for the token, whose visit does not
// hold, and not one whose hold a peer's nudge ended, for by the time its reply
// is ready the token has been round and back and the reply is no visit's.
// (Core's TestServantSlowerThanARotationStopsHolding runs this on a live
// ring, where which operation is the one cannot be told in advance.)
func TestReplyHoldStopsAtAServantSlowerThanARotation(t *testing.T) {
	p := holdProcessor()
	now := time.Now().Add(-time.Hour)
	slow, usual := p.cfg.Tick/2, p.cfg.Tick/4
	const (
		queued  = iota // the request is waiting when the token arrives
		nudging        // the request is enqueued after the token left idle, and nudges
		hurried        // queued, and a peer's nudge ends the hold before the reply
	)
	// operation runs one slow invocation ten Ticks on; away is how long the
	// token stays away if it leaves before the reply.
	operation := func(how int, away time.Duration) (held bool) {
		t.Helper()
		now = now.Add(10 * p.cfg.Tick)
		p.handleData(&dataMsg{Ring: p.ring, Seq: p.seqHigh + 1, Chunks: []chunk{{Sender: "b", MsgID: p.seqHigh, FragTotal: 1, Payload: []byte("y")}}}, now)
		if how == nudging {
			p.sched.canNudge, p.sched.leftIdle = true, true // the token has left since the last nudge, idle
			submit(p, request(), now)
			if got := wire(p); got != "hurry" {
				t.Fatalf("wire = %q: a request behind an idle token's departure did not nudge", got)
			}
		} else {
			p.enqueue(request(), now)
		}
		visit(p, now)
		p.sched.rotation = usual
		held = p.sched.resting == obs.RestReplyOwed
		if how == hurried {
			p.handleHurry(&hurryMsg{Ring: p.ring, Origin: "c"}, now.Add(usual/2))
		}
		if p.parkedToken == nil && away < slow {
			visit(p, now.Add(away)) // round and back before the servant is done
			p.sched.rotation = usual
		}
		submit(p, reply(), now.Add(slow))
		if p.pending.Len() > 0 {
			visit(p, now.Add(slow+usual)) // the reply goes out on the token's next visit
			p.sched.rotation = usual
		}
		wire(p)
		return held
	}
	if operation(nudging, usual) || !p.sched.holdPays(0) {
		t.Fatalf("disarmed = %v after a slow operation whose own nudge forbade the hold", !p.sched.holdPays(0))
	}
	if !operation(hurried, usual) || !p.sched.holdPays(0) {
		t.Fatalf("disarmed = %v after a hold that a peer's nudge ended at once", !p.sched.holdPays(0))
	}
	if !operation(queued, usual) || p.sched.holdPays(0) {
		t.Fatalf("disarmed = %v after a hold that lasted to its late reply", !p.sched.holdPays(0))
	}
	for i := 0; i < 40; i++ {
		// Whether or not the token is back before the servant is done.
		if operation(queued, []time.Duration{usual, 2 * slow}[i%2]) || p.sched.holdPays(0) {
			t.Fatalf("slow operation %d after the one that disarmed: held, disarmed = %v", i+1, !p.sched.holdPays(0))
		}
	}
	if st := p.Stats(); st.ReplyHolds != 2 || st.ReplyHoldTimeouts != 0 || st.Rests != 0 {
		t.Fatalf("stats %+v: want the nudged-away hold and the one that taught, no timeout", st)
	}
}

// TestRotationTracksTheUsualAbsence: rotation steps towards each absence of
// the token, so it settles at the usual one and a stalled rotation barely
// moves it; an absence the resend timer cut short is no sample.
func TestRotationTracksTheUsualAbsence(t *testing.T) {
	p := offlineProcessor("a", "b", "c")
	now := time.Now()
	usual := p.cfg.Tick / 10
	away := func(d time.Duration) {
		visit(p, now)
		now = now.Add(d)
	}
	for i := 0; i < 40; i++ {
		away(usual)
	}
	away(50 * p.cfg.Tick)
	away(usual)
	if p.sched.rotation < usual*3/4 || p.sched.rotation > usual*3/2 {
		t.Fatalf("rotation = %v with the token usually %v away", p.sched.rotation, usual)
	}
	visit(p, now)
	before := p.sched.rotation
	p.tokenResends = 1
	visit(p, now.Add(time.Microsecond))
	if p.sched.rotation != before {
		t.Fatalf("rotation moved from %v to %v on a resent token's return", before, p.sched.rotation)
	}
}

// TestUnmarkedDeliveryNeverHolds: whatever the ordered-point hook did not
// mark — a oneway, a control message, a foreign sender's request — leaves
// the token alone, and so does a reply.
func TestUnmarkedDeliveryNeverHolds(t *testing.T) {
	p := holdProcessor()
	now := time.Now()
	p.handleData(&dataMsg{Ring: p.ring, Seq: 1, Chunks: []chunk{{Sender: "b", MsgID: 1, FragTotal: 1, Payload: []byte("req")}}}, now)
	p.enqueue(submission{chunks: [][]byte{[]byte("oneway")}}, now)
	p.enqueue(reply(), now)
	visit(p, now)
	if st := p.Stats(); p.parkedToken != nil || st.ReplyHolds != 0 || st.ChunksSent != 2 {
		t.Fatalf("parked = %v, ReplyHolds = %d, ChunksSent = %d: held the token with no reply owed", p.parkedToken != nil, st.ReplyHolds, st.ChunksSent)
	}
}

// TestReplyHoldersAlternatingKeepGarbageCollection: two members taking
// turns to hold the token for their replies still send it round, so aru
// and garbage collection keep up with the stream the way they do behind a
// sole sender's rest (TestRestNeverOutlivesOneTick).
func TestReplyHoldersAlternatingKeepGarbageCollection(t *testing.T) {
	procs := classicRing(t, simnet.New(simnet.Config{}), func(addr string, cfg *Config) {
		cfg.Ordered = markRequests(addr)
	}, "a", "b", "c")
	const invocations = 500
	var clients sync.WaitGroup
	for _, p := range []*Processor{procs["a"], procs["c"]} {
		p := p
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := 0; i < 2*invocations; i++ {
				var err error
				if i%2 == 0 {
					err = p.Multicast([]byte("req"))
				} else {
					err = p.MulticastTraced([]byte("rep"), 0, true)
				}
				if err != nil {
					t.Error(err)
					return
				}
				for own := false; !own; {
					select {
					case d := <-p.Deliveries():
						own = d.View == nil && d.Sender == p.Addr()
					case <-time.After(5 * time.Second):
						t.Errorf("%s: message %d never came back", p.Addr(), i)
						return
					}
				}
			}
		}()
	}
	clients.Wait()
	for _, addr := range []string{"a", "c"} {
		p := procs[addr]
		st := p.Stats()
		p.Stop() // its protocol state is safe to read once the run goroutine has exited
		t.Logf("%s: %d holds, %d timeouts, %d rests, gcLow %d of %d", addr, st.ReplyHolds, st.ReplyHoldTimeouts, st.Rests, p.gcLow, p.seqHigh)
		if st.ReplyHolds == 0 {
			t.Fatalf("%s never held the token in %d invocations", addr, invocations)
		}
		if p.gcLow == 0 || p.gcLow < p.seqHigh/2 {
			t.Fatalf("%s: gcLow = %d of %d sequenced: holding starves garbage collection", addr, p.gcLow, p.seqHigh)
		}
	}
}
