package totem

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// restRing is classicRing with timings under which a rest is long enough
// to observe: a large Tick, a short IdleGrace.
func restRing(t *testing.T, tick time.Duration, addrs ...string) map[string]*Processor {
	return classicRing(t, simnet.New(simnet.Config{}), func(_ string, cfg *Config) {
		cfg.Tick = tick
		cfg.IdleGrace = 4 * time.Millisecond
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
	// Nobody is the sole sender until IdleGrace (2 ticks here) has passed.
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
// that one peer has done all the sending for IdleGrace — the condition
// under which that peer keeps it — and one nudge brings it over.
func TestSecondSenderServedAfterOneHurry(t *testing.T) {
	const tick = 40 * time.Millisecond
	procs := restRing(t, tick, "a", "b", "c")
	a, b := procs["a"], procs["b"]
	stop := make(chan struct{})
	var done sync.WaitGroup
	soleSender(t, a, stop, &done)
	defer func() { close(stop); done.Wait() }()
	awaitRests(t, a, 2)

	start := time.Now()
	if err := b.Multicast([]byte("urgent")); err != nil {
		t.Fatal(err)
	}
	awaitPayload(t, b, "urgent", 3*time.Second)
	if took := time.Since(start); took > tick/2 {
		t.Fatalf("b's message took %v with the token resting at a (Tick %v): it waited the rest out", took, tick)
	}
	if n := b.Stats().HurriesSent; n != 1 {
		t.Fatalf("b sent %d nudges, want exactly one", n)
	}
	if n := a.Stats().HurriesReceived; n == 0 {
		t.Fatal("a never saw the nudge that released its rest")
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
	p.soleSender, p.soleSince = "a", now.Add(-time.Second)
	one := func() submission { return submission{chunks: [][]byte{[]byte("x")}} }

	p.enqueue(one(), now)
	p.handleHurry(&hurryMsg{Ring: p.ring, Origin: "b"}, now) // the token is still on its way here
	p.handleToken(&tokenMsg{Ring: p.ring, Round: 1}, now)
	if p.parkedToken != nil || p.Stats().Rests != 0 {
		t.Fatal("token rested although a peer had nudged for it")
	}
	if p.hurried {
		t.Fatal("hurried survived the forward it was meant for")
	}

	// The next visit finds nobody asking: the sole sender keeps the token,
	p.enqueue(one(), now)
	p.handleToken(&tokenMsg{Ring: p.ring, Round: 4, Seq: 1}, now)
	if p.parkedToken == nil || !p.resting || p.Stats().Rests != 1 {
		t.Fatalf("sole sender did not rest: parked=%v resting=%v", p.parkedToken != nil, p.resting)
	}
	// sequences its next message from it at once without extending the rest,
	until := p.parkedUntil
	p.enqueue(one(), now.Add(time.Millisecond))
	p.kick(classUrgent, now.Add(time.Millisecond))
	if p.Stats().ChunksSent != 3 || p.pending.Len() != 0 {
		t.Fatalf("ChunksSent = %d, pending = %d: the resting token did not serve the enqueue", p.Stats().ChunksSent, p.pending.Len())
	}
	if p.parkedToken == nil || p.parkedUntil != until {
		t.Fatal("serving an enqueue ended or extended the rest")
	}
	// and gives it up on a nudge, or when the deadline passes.
	p.onTick(until)
	if p.parkedToken != nil || p.resting {
		t.Fatal("rest outlived its deadline")
	}
	p.enqueue(one(), now)
	p.handleToken(&tokenMsg{Ring: p.ring, Round: 8, Seq: 3}, now)
	if !p.resting {
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
	p.lastActivityAt = now.Add(-time.Hour)
	lazy := func(payload string, withdrawn bool) submission {
		return submission{chunks: [][]byte{[]byte(payload)}, reply: true, class: classLazy,
			withdraw: func() bool { return withdrawn }}
	}
	// An idle token parked here stays parked.
	p.forwardToken(&tokenMsg{Ring: p.ring, IdleHops: 3}, now, 0)
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
	if p.Stats().HurriesSent != 0 || p.wantToken {
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

// TestBulkLanePromotesByQuota: each token visit lets BulkPerVisit whole
// messages from the bulk lane into the sending queue, counts a stall when
// that leaves some behind, and the token neither paces nor rests while
// any wait. With no quota the lane is still bounded by the visit's
// flow-control window, so it cannot build a backlog in the sending queue.
func TestBulkLanePromotesByQuota(t *testing.T) {
	p := offlineProcessor("a", "b", "c")
	p.cfg.BulkPerVisit = 2
	now := time.Now()
	p.soleSender, p.soleSince = "a", now.Add(-time.Second) // would rest, were it not for the bulk
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
	q.cfg.MaxPerToken = 4
	for i := 0; i < 3; i++ {
		q.enqueue(bulk(3), now)
	}
	q.handleToken(&tokenMsg{Ring: q.ring, Round: 3}, now)
	if st := q.Stats(); st.BulkPromoted != 2 || st.ChunksSent != 4 || q.pending.Len() != 2 {
		t.Fatalf("promoted %d, sent %d, left %d: want two messages let in (the second fills the window), one visit's worth sent",
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
		cfg.MaxPerToken = 3
		cfg.BulkPerVisit = 2
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
		if r.Resting && r.PendingAfter > 0 {
			t.Fatalf("a rested on round %d with %d chunks left to send", r.Round, r.PendingAfter)
		}
	}
}
