package totem

import (
	"fmt"
	"testing"
	"time"

	"eternal/internal/simnet"
)

// pacedConfig slows the timers enough that pacing windows are observable
// and a hurry nudge's latency win is unambiguous.
func pacedConfig(tr Transport, tick time.Duration) Config {
	return Config{
		Transport:        tr,
		TokenLossTimeout: 100 * tick,
		JoinInterval:     10 * time.Millisecond,
		StableFor:        20 * time.Millisecond,
		Tick:             tick,
	}
}

// TestIdleRingPacesExponentially drives a 2-member ring idle and checks
// that the token stops spinning at wire speed: rotation counters advance
// at tick pace, paced hops accumulate, and the profiler samples record
// the parked visits.
func TestIdleRingPacesExponentially(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b"}, 3*time.Second)
	}
	// One message to seed activity, then let the ring go fully idle.
	if err := c.procs["a"].Multicast([]byte("seed")); err != nil {
		t.Fatal(err)
	}
	collect(t, c.procs["b"], 1, 3*time.Second)
	time.Sleep(100 * time.Millisecond)

	// With Tick=1ms and two members, a fully paced rotation costs at
	// least 2 ticks, so a 300ms window fits at most ~300 rotations (plus
	// slack for the grace period); wire speed would be tens of thousands.
	r1 := c.procs["a"].Stats().TokenRotations
	time.Sleep(300 * time.Millisecond)
	r2 := c.procs["a"].Stats().TokenRotations
	if grew := r2 - r1; grew > 1000 {
		t.Fatalf("idle ring rotated %d times in 300ms: token not paced", grew)
	} else if grew == 0 {
		t.Fatal("token stopped rotating entirely while idle")
	}
	if paced := c.procs["a"].Stats().PacedHops; paced == 0 {
		t.Fatal("no paced hops recorded on an idle ring")
	}
	var sawPaced bool
	for _, r := range c.procs["a"].Rotations(0) {
		if r.Paced && r.PaceTicks > 0 && r.IdleHops >= 2 {
			sawPaced = true
			break
		}
	}
	if !sawPaced {
		t.Fatalf("no rotation sample recorded pacing: %+v", c.procs["a"].Rotations(8))
	}
}

// TestBackgroundMulticastRidesPacedToken proves the satellite invariant:
// background traffic (the consistency audit's marks) is delivered by an
// idle ring without un-pacing it — IdleHops is not reset and the
// rotation rate stays at tick pace across repeated background sends.
func TestBackgroundMulticastRidesPacedToken(t *testing.T) {
	net := simnet.New(simnet.Config{})
	epA, _ := net.Join("a")
	epB, _ := net.Join("b")
	pa, err := Start(pacedConfig(NewSimnetTransport(epA), time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Start(pacedConfig(NewSimnetTransport(epB), time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pa.Stop(); pb.Stop() })
	awaitView(t, pa, []string{"a", "b"}, 3*time.Second)
	awaitView(t, pb, []string{"a", "b"}, 3*time.Second)

	// Let pacing engage, then send a background "audit epoch" every 50ms
	// for 400ms — like audit marks on a quiescent domain.
	time.Sleep(100 * time.Millisecond)
	r1 := pa.Stats().TokenRotations
	const epochs = 8
	for i := 0; i < epochs; i++ {
		if err := pa.MulticastBackground([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	ds := collect(t, pb, epochs, 5*time.Second)
	for i, d := range ds {
		if d.Payload[0] != byte(i) {
			t.Fatalf("background order violated at %d", i)
		}
	}
	r2 := pa.Stats().TokenRotations
	// 400ms of paced rotations at >= 2 ticks each is at most ~200 (plus
	// generous slack); background traffic resetting IdleHops would push
	// the ring back to wire speed — tens of thousands of rotations.
	if grew := r2 - r1; grew > 1500 {
		t.Fatalf("ring rotated %d times across %d background epochs: audit traffic un-paced the token", grew, epochs)
	}
	if hurries := pa.Stats().HurriesSent; hurries != 0 {
		t.Fatalf("background multicast sent %d hurry nudges", hurries)
	}
}

// TestHurryNudgeWakesIdlePacedRing parks a 2-member ring at maximum
// pacing with a large tick, waits until the peer demonstrably holds the
// parked token (its PacedHops counter just advanced), then enqueues on
// the other member and measures delivery latency. The hurry nudge must
// release the remotely parked token and carry the message at wire speed
// — far below the paced rotation time.
func TestHurryNudgeWakesIdlePacedRing(t *testing.T) {
	const tick = 30 * time.Millisecond
	net := simnet.New(simnet.Config{})
	var procs []*Processor
	for _, addr := range []string{"a", "b"} {
		ep, err := net.Join(addr)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Start(pacedConfig(NewSimnetTransport(ep), tick))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Stop()
		procs = append(procs, p)
	}
	pa, pb := procs[0], procs[1]
	awaitView(t, pa, []string{"a", "b"}, 5*time.Second)
	awaitView(t, pb, []string{"a", "b"}, 5*time.Second)
	// Reach deep pacing: several fully idle rotations at up to
	// maxPaceTicks×tick (120ms) per hop.
	time.Sleep(500 * time.Millisecond)

	// PacedHops increments when a member parks the token, so a fresh
	// increment on "a" means the token sits parked there for the next
	// ~3 ticks (90ms) — long enough to send from "b" while "a" holds it.
	deadline := time.Now().Add(3 * time.Second)
	last := pa.Stats().PacedHops
	for pa.Stats().PacedHops == last {
		if time.Now().After(deadline) {
			t.Fatal("ring never paced during the idle window")
		}
		time.Sleep(2 * time.Millisecond)
	}

	start := time.Now()
	if err := pb.Multicast([]byte("wake")); err != nil {
		t.Fatal(err)
	}
	collect(t, pa, 1, 3*time.Second)
	elapsed := time.Since(start)
	// The token is parked at "a" for up to maxPaceTicks×tick = 120ms;
	// without the nudge the delivery would wait most of that out. The
	// nudged path is ~2 wire hops.
	if elapsed > 60*time.Millisecond {
		t.Fatalf("first post-idle delivery took %v: hurry nudge did not cancel pacing", elapsed)
	}
	if sent := pb.Stats().HurriesSent; sent == 0 {
		t.Fatal("sender recorded no hurry nudge")
	}
	if recv := pa.Stats().HurriesReceived; recv == 0 {
		t.Fatal("parked holder recorded no received hurry")
	}
}

// TestTwoMemberTotalOrderConcurrentSenders has both members of a 2-member
// ring multicast concurrently and checks that both deliver one identical
// total order that preserves each sender's submission order.
func TestTwoMemberTotalOrderConcurrentSenders(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b"}, 3*time.Second)
	}
	const per = 50
	errs := make(chan error, 2)
	for _, addr := range []string{"a", "b"} {
		go func(addr string) {
			p := c.procs[addr]
			for i := 0; i < per; i++ {
				if err := p.Multicast([]byte(fmt.Sprintf("%s-%03d", addr, i))); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(addr)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	dsA := collect(t, c.procs["a"], 2*per, 10*time.Second)
	dsB := collect(t, c.procs["b"], 2*per, 10*time.Second)
	perSender := map[string]int{}
	for i := range dsA {
		if string(dsA[i].Payload) != string(dsB[i].Payload) {
			t.Fatalf("order diverges at %d: %q vs %q", i, dsA[i].Payload, dsB[i].Payload)
		}
		// Within one sender, submission order must be preserved.
		var sender string
		var seq int
		fmt.Sscanf(string(dsA[i].Payload), "%1s-%d", &sender, &seq)
		if seq != perSender[sender] {
			t.Fatalf("sender %s delivered out of submission order: got %d want %d", sender, seq, perSender[sender])
		}
		perSender[sender]++
	}
}

// TestRepresentativeFailureThenNewcomer kills a 2-member ring's
// representative mid stream. The survivor reforms alone, keeps delivering,
// and a joining newcomer gets a 2-member ring under the new representative.
func TestRepresentativeFailureThenNewcomer(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b"}, 3*time.Second)
	}
	if err := c.procs["b"].Multicast([]byte("before")); err != nil {
		t.Fatal(err)
	}
	collect(t, c.procs["a"], 1, 3*time.Second)
	collect(t, c.procs["b"], 1, 3*time.Second)

	// Kill "a" (smallest address == representative).
	c.kill("a")
	awaitView(t, c.procs["b"], []string{"b"}, 5*time.Second)
	if err := c.procs["b"].Multicast([]byte("solo")); err != nil {
		t.Fatal(err)
	}
	ds := collect(t, c.procs["b"], 1, 3*time.Second)
	if string(ds[0].Payload) != "solo" {
		t.Fatalf("single-member delivery = %q", ds[0].Payload)
	}

	// A newcomer joins; "b" is now the representative of the merged ring.
	pc := c.add("c")
	awaitView(t, c.procs["b"], []string{"b", "c"}, 5*time.Second)
	awaitView(t, pc, []string{"b", "c"}, 5*time.Second)
	if err := pc.Multicast([]byte("joined")); err != nil {
		t.Fatal(err)
	}
	dsB := collect(t, c.procs["b"], 1, 3*time.Second)
	dsC := collect(t, pc, 1, 3*time.Second)
	if string(dsB[0].Payload) != "joined" || string(dsC[0].Payload) != "joined" {
		t.Fatalf("post-merge delivery = %q / %q", dsB[0].Payload, dsC[0].Payload)
	}
}
