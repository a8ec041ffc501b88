package simnet

import (
	"errors"
	"testing"
	"time"
)

// fastNet returns a network with no artificial delays for logic tests.
func fastNet(t *testing.T) *Network {
	t.Helper()
	return New(Config{Latency: 0, BandwidthBps: 0})
}

func join(t *testing.T, n *Network, addr string) *Endpoint {
	t.Helper()
	ep, err := n.Join(addr)
	if err != nil {
		t.Fatalf("Join(%s): %v", addr, err)
	}
	return ep
}

func recvWithin(t *testing.T, ep *Endpoint, d time.Duration) Packet {
	t.Helper()
	select {
	case pkt, ok := <-ep.Recv():
		if !ok {
			t.Fatalf("%s: inbox closed", ep.Addr())
		}
		return pkt
	case <-time.After(d):
		t.Fatalf("%s: no packet within %v", ep.Addr(), d)
		panic("unreachable")
	}
}

func expectNothing(t *testing.T, ep *Endpoint, d time.Duration) {
	t.Helper()
	select {
	case pkt, ok := <-ep.Recv():
		if ok {
			t.Fatalf("%s: unexpected packet from %s", ep.Addr(), pkt.From)
		}
	case <-time.After(d):
	}
}

func TestUnicast(t *testing.T) {
	n := fastNet(t)
	a, b := join(t, n, "a"), join(t, n, "b")
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	pkt := recvWithin(t, b, time.Second)
	if pkt.From != "a" || string(pkt.Payload) != "hello" {
		t.Fatalf("pkt = %+v", pkt)
	}
	expectNothing(t, a, 20*time.Millisecond)
}

func TestBroadcastIncludesSelf(t *testing.T) {
	n := fastNet(t)
	eps := []*Endpoint{join(t, n, "a"), join(t, n, "b"), join(t, n, "c")}
	if err := eps[0].Broadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps {
		pkt := recvWithin(t, ep, time.Second)
		if pkt.From != "a" {
			t.Errorf("%s: from = %s", ep.Addr(), pkt.From)
		}
	}
}

func TestMTUEnforced(t *testing.T) {
	n := New(Config{MTU: 100})
	a := join(t, n, "a")
	if err := a.Broadcast(make([]byte, 101)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if err := a.Broadcast(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultMTUIsEthernet(t *testing.T) {
	n := New(Config{})
	if n.MTU() != EthernetMTU {
		t.Fatalf("MTU = %d", n.MTU())
	}
}

func TestSendToUnknownSilentlyDropped(t *testing.T) {
	n := fastNet(t)
	a := join(t, n, "a")
	if err := a.Send("ghost", []byte("x")); err != nil {
		t.Fatalf("send to absent host must not error, got %v", err)
	}
}

func TestDuplicateJoinRejected(t *testing.T) {
	n := fastNet(t)
	join(t, n, "a")
	if _, err := n.Join("a"); !errors.Is(err, ErrDuplicateAdr) {
		t.Fatalf("err = %v", err)
	}
}

func TestClosedEndpoint(t *testing.T) {
	n := fastNet(t)
	a, b := join(t, n, "a"), join(t, n, "b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("a", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Frames to a removed endpoint vanish.
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The inbox channel closes.
	if _, ok := <-b.Recv(); ok {
		t.Fatal("inbox should be closed")
	}
	// Re-joining the same address works after removal.
	join(t, n, "b")
}

func TestRemoveIdempotent(t *testing.T) {
	n := fastNet(t)
	join(t, n, "a")
	n.Remove("a")
	n.Remove("a")
	n.Remove("never-joined")
}

func TestPartitionAndHeal(t *testing.T) {
	n := fastNet(t)
	a, b, c := join(t, n, "a"), join(t, n, "b"), join(t, n, "c")
	n.Partition([]string{"a", "b"}, []string{"c"})

	if err := a.Broadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, a, time.Second)
	recvWithin(t, b, time.Second)
	expectNothing(t, c, 20*time.Millisecond)

	// Unicast across the partition is dropped.
	if err := c.Send("a", []byte("y")); err != nil {
		t.Fatal(err)
	}
	expectNothing(t, a, 20*time.Millisecond)

	n.Heal()
	if err := c.Send("a", []byte("z")); err != nil {
		t.Fatal(err)
	}
	pkt := recvWithin(t, a, time.Second)
	if string(pkt.Payload) != "z" {
		t.Fatalf("payload = %q", pkt.Payload)
	}
}

func TestLossDeterministic(t *testing.T) {
	run := func() Stats {
		n := New(Config{LossRate: 0.5, Seed: 42})
		a := join(t, n, "a")
		join(t, n, "b")
		for i := 0; i < 200; i++ {
			if err := a.Send("b", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return n.Stats()
	}
	s1, s2 := run(), run()
	if s1.FramesLost == 0 || s1.FramesLost == 200 {
		t.Fatalf("loss rate not applied: %+v", s1)
	}
	if s1.FramesLost != s2.FramesLost {
		t.Fatalf("loss not deterministic: %d vs %d", s1.FramesLost, s2.FramesLost)
	}
}

func TestSerializationDelayScalesWithSize(t *testing.T) {
	// 1 Mbps wire: a 1250-byte payload (+54 overhead) takes ~10.4ms.
	n := New(Config{BandwidthBps: 1_000_000, MTU: 10_000})
	a, b := join(t, n, "a"), join(t, n, "b")
	start := time.Now()
	if err := a.Send("b", make([]byte, 1250)); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b, time.Second)
	elapsed := time.Since(start)
	if elapsed < 8*time.Millisecond {
		t.Fatalf("delivery too fast for 1 Mbps wire: %v", elapsed)
	}
}

func TestSharedWireQueues(t *testing.T) {
	// Two back-to-back frames must serialize one after the other.
	n := New(Config{BandwidthBps: 1_000_000, MTU: 10_000})
	a, b := join(t, n, "a"), join(t, n, "b")
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := a.Send("b", make([]byte, 1250)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		recvWithin(t, b, 2*time.Second)
	}
	elapsed := time.Since(start)
	if elapsed < 35*time.Millisecond {
		t.Fatalf("4 frames on 1 Mbps should take ≥ ~40ms, got %v", elapsed)
	}
}

func TestStatsCounters(t *testing.T) {
	n := fastNet(t)
	a := join(t, n, "a")
	join(t, n, "b")
	if err := a.Broadcast([]byte("xyz")); err != nil {
		t.Fatal(err)
	}
	// Broadcast reaches a and b.
	recvWithin(t, a, time.Second)
	s := n.Stats()
	if s.FramesSent != 1 {
		t.Errorf("FramesSent = %d", s.FramesSent)
	}
	if s.BytesOnWire == 0 {
		t.Error("BytesOnWire = 0")
	}
}

func TestInboxOverrunCounted(t *testing.T) {
	n := New(Config{})
	a, _ := n.Join("a")
	b, _ := n.Join("b")
	_ = b // b never reads
	for i := 0; i < inboxDepth+10; i++ {
		if err := a.Send("b", []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if n.Stats().FramesOverrun >= 8 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("overruns = %d, want ≥ 8", n.Stats().FramesOverrun)
}

// TestSetLinkOneWayDrop is the asymmetric-partition primitive: after
// SetLink(a→b, Drop), a hears b but b never hears a — on broadcast and
// unicast alike — and the reverse link plus third parties are untouched.
func TestSetLinkOneWayDrop(t *testing.T) {
	n := fastNet(t)
	a, b, c := join(t, n, "a"), join(t, n, "b"), join(t, n, "c")
	n.SetLink("a", "b", LinkOverride{Drop: true})

	// b → a still flows: a hears b.
	if err := b.Send("a", []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	if pkt := recvWithin(t, a, time.Second); string(pkt.Payload) != "from-b" {
		t.Fatalf("payload = %q", pkt.Payload)
	}

	// a → b is severed: b never hears a, unicast or broadcast.
	if err := a.Send("b", []byte("unicast")); err != nil {
		t.Fatal(err)
	}
	expectNothing(t, b, 20*time.Millisecond)
	if err := a.Broadcast([]byte("bcast")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, a, time.Second) // loopback unaffected
	recvWithin(t, c, time.Second) // third party unaffected
	expectNothing(t, b, 20*time.Millisecond)

	// ClearLink restores the direction.
	n.ClearLink("a", "b")
	if err := a.Send("b", []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if pkt := recvWithin(t, b, time.Second); string(pkt.Payload) != "healed" {
		t.Fatalf("payload = %q", pkt.Payload)
	}
}

func TestIsolateCutsBothDirections(t *testing.T) {
	n := fastNet(t)
	a, b, c := join(t, n, "a"), join(t, n, "b"), join(t, n, "c")
	n.Isolate("b")

	// The rest of the segment is unaffected.
	if err := a.Broadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, a, time.Second)
	recvWithin(t, c, time.Second)
	expectNothing(t, b, 20*time.Millisecond)

	// The isolated node reaches nobody but still hears its own loopback.
	if err := b.Broadcast([]byte("y")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b, time.Second)
	expectNothing(t, a, 20*time.Millisecond)
	expectNothing(t, c, 20*time.Millisecond)

	// Heal removes the isolation along with everything else.
	n.Heal()
	if err := b.Send("a", []byte("back")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, a, time.Second)
}

// TestSetLinkLossDeterministic pins the seeded-replay property the
// scenario harness depends on: per-link loss rolls with the same seed
// lose the same frames.
func TestSetLinkLossDeterministic(t *testing.T) {
	run := func() Stats {
		n := New(Config{Seed: 7})
		a := join(t, n, "a")
		join(t, n, "b")
		join(t, n, "c")
		n.SetLink("a", "b", LinkOverride{LossRate: 0.5})
		for i := 0; i < 200; i++ {
			if err := a.Broadcast([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return n.Stats()
	}
	s1, s2 := run(), run()
	if s1.FramesLost == 0 || s1.FramesLost == 200 {
		t.Fatalf("per-link loss rate not applied: %+v", s1)
	}
	if s1.FramesLost != s2.FramesLost || s1.FramesDelivered != s2.FramesDelivered {
		t.Fatalf("per-link loss not deterministic: %+v vs %+v", s1, s2)
	}
}

// TestSetLinkExtraLatency delays one link without touching the others.
func TestSetLinkExtraLatency(t *testing.T) {
	n := fastNet(t)
	a, b, c := join(t, n, "a"), join(t, n, "b"), join(t, n, "c")
	_ = a
	n.SetLink("a", "b", LinkOverride{ExtraLatency: 60 * time.Millisecond})
	start := time.Now()
	if err := a.Broadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, c, time.Second)
	if fast := time.Since(start); fast > 40*time.Millisecond {
		t.Fatalf("unshaped link took %v", fast)
	}
	recvWithin(t, b, time.Second)
	if slow := time.Since(start); slow < 50*time.Millisecond {
		t.Fatalf("shaped link arrived after only %v, want ≥ ~60ms", slow)
	}
}

func TestSetLossRateRuntimeReconfig(t *testing.T) {
	n := fastNet(t)
	a, b := join(t, n, "a"), join(t, n, "b")
	n.SetLossRate(1.0)
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	expectNothing(t, b, 20*time.Millisecond)
	n.SetLossRate(0)
	if err := a.Send("b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if pkt := recvWithin(t, b, time.Second); string(pkt.Payload) != "y" {
		t.Fatalf("payload = %q", pkt.Payload)
	}
}

func TestPayloadCopiedAtBoundary(t *testing.T) {
	n := fastNet(t)
	a, b := join(t, n, "a"), join(t, n, "b")
	buf := []byte("original")
	if err := a.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBER!")
	pkt := recvWithin(t, b, time.Second)
	if string(pkt.Payload) != "original" {
		t.Fatalf("payload aliased sender buffer: %q", pkt.Payload)
	}
}
