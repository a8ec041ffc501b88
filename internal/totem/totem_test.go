package totem

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"eternal/internal/obs"
	"eternal/internal/simnet"
)

// fastConfig returns timings small enough for quick reformation in tests.
func fastConfig(tr Transport) Config {
	return Config{
		Transport:        tr,
		TokenLossTimeout: 80 * time.Millisecond,
		JoinInterval:     10 * time.Millisecond,
		StableFor:        20 * time.Millisecond,
		Tick:             time.Millisecond,
	}
}

type cluster struct {
	t     *testing.T
	net   *simnet.Network
	procs map[string]*Processor
}

func newCluster(t *testing.T, cfg simnet.Config, addrs ...string) *cluster {
	t.Helper()
	c := &cluster{t: t, net: simnet.New(cfg), procs: make(map[string]*Processor)}
	for _, a := range addrs {
		c.add(a)
	}
	t.Cleanup(func() {
		for _, p := range c.procs {
			p.Stop()
		}
	})
	return c
}

func (c *cluster) add(addr string) *Processor {
	c.t.Helper()
	ep, err := c.net.Join(addr)
	if err != nil {
		c.t.Fatal(err)
	}
	p, err := Start(fastConfig(NewSimnetTransport(ep)))
	if err != nil {
		c.t.Fatal(err)
	}
	c.procs[addr] = p
	return p
}

func (c *cluster) kill(addr string) {
	c.t.Helper()
	p, ok := c.procs[addr]
	if !ok {
		c.t.Fatalf("no processor %s", addr)
	}
	delete(c.procs, addr)
	p.Stop()
}

// awaitView waits until p observes a view with exactly the given members.
func awaitView(t *testing.T, p *Processor, want []string, timeout time.Duration) Membership {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case v, ok := <-p.Views():
			if !ok {
				t.Fatalf("%s: views closed", p.Addr())
			}
			if len(v.Members) == len(want) {
				match := true
				for i := range want {
					if v.Members[i] != want[i] {
						match = false
						break
					}
				}
				if match {
					return v
				}
			}
		case <-deadline:
			t.Fatalf("%s: no view %v within %v", p.Addr(), want, timeout)
		}
	}
}

func collect(t *testing.T, p *Processor, n int, timeout time.Duration) []Delivery {
	t.Helper()
	var out []Delivery
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case d, ok := <-p.Deliveries():
			if !ok {
				t.Fatalf("%s: deliveries closed after %d/%d", p.Addr(), len(out), n)
			}
			if d.View != nil {
				continue // membership events interleave with messages
			}
			out = append(out, d)
		case <-deadline:
			t.Fatalf("%s: got %d/%d deliveries within %v", p.Addr(), len(out), n, timeout)
		}
	}
	return out
}

func TestSingleMemberRing(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a")
	p := c.procs["a"]
	awaitView(t, p, []string{"a"}, 2*time.Second)
	if err := p.Multicast([]byte("solo")); err != nil {
		t.Fatal(err)
	}
	ds := collect(t, p, 1, 2*time.Second)
	if string(ds[0].Payload) != "solo" || ds[0].Sender != "a" {
		t.Fatalf("delivery = %+v", ds[0])
	}
}

func TestThreeMemberTotalOrder(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b", "c")
	want := []string{"a", "b", "c"}
	for _, p := range c.procs {
		awaitView(t, p, want, 3*time.Second)
	}
	// Everyone multicasts concurrently.
	const per = 20
	for _, p := range c.procs {
		p := p
		go func() {
			for i := 0; i < per; i++ {
				if err := p.Multicast([]byte(fmt.Sprintf("%s-%d", p.Addr(), i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	total := per * 3
	var sequences [3][]string
	i := 0
	for _, p := range c.procs {
		ds := collect(t, p, total, 10*time.Second)
		for _, d := range ds {
			sequences[i] = append(sequences[i], string(d.Payload))
		}
		i++
	}
	// Agreed order: every member sees the identical sequence.
	for i := 1; i < 3; i++ {
		if len(sequences[i]) != len(sequences[0]) {
			t.Fatalf("length mismatch: %d vs %d", len(sequences[i]), len(sequences[0]))
		}
		for j := range sequences[0] {
			if sequences[i][j] != sequences[0][j] {
				t.Fatalf("order diverges at %d: %q vs %q", j, sequences[i][j], sequences[0][j])
			}
		}
	}
}

func TestSeqNonDecreasing(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b"}, 3*time.Second)
	}
	for i := 0; i < 10; i++ {
		if err := c.procs["a"].Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ds := collect(t, c.procs["b"], 10, 5*time.Second)
	// Sequence numbers are non-decreasing; messages packed into one frame
	// share a sequence number, so equal neighbours are legal.
	for i := 1; i < len(ds); i++ {
		if ds[i].Seq < ds[i-1].Seq {
			t.Fatalf("seq decreased: %d then %d", ds[i-1].Seq, ds[i].Seq)
		}
	}
	// FIFO per sender.
	for i, d := range ds {
		if d.Payload[0] != byte(i) {
			t.Fatalf("sender order violated at %d: %d", i, d.Payload[0])
		}
	}
}

func TestLargeMessageFragmentation(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b"}, 3*time.Second)
	}
	big := make([]byte, 50_000) // >> 1518 MTU
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := c.procs["a"].Multicast(big); err != nil {
		t.Fatal(err)
	}
	ds := collect(t, c.procs["b"], 1, 10*time.Second)
	if !bytes.Equal(ds[0].Payload, big) {
		t.Fatalf("payload corrupted: %d bytes", len(ds[0].Payload))
	}
	// Fragmentation must have produced many chunks.
	if st := c.procs["a"].Stats(); st.ChunksSent < 30 {
		t.Errorf("ChunksSent = %d, want many fragments", st.ChunksSent)
	}
}

func TestInterleavedLargeAndSmall(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b"}, 3*time.Second)
	}
	big := make([]byte, 10_000)
	if err := c.procs["a"].Multicast(big); err != nil {
		t.Fatal(err)
	}
	if err := c.procs["b"].Multicast([]byte("small")); err != nil {
		t.Fatal(err)
	}
	dsA := collect(t, c.procs["a"], 2, 10*time.Second)
	dsB := collect(t, c.procs["b"], 2, 10*time.Second)
	for i := range dsA {
		if dsA[i].Seq != dsB[i].Seq || dsA[i].Sender != dsB[i].Sender {
			t.Fatalf("divergent deliveries: %+v vs %+v", dsA[i], dsB[i])
		}
	}
}

func TestMemberFailureReformsRing(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b", "c")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b", "c"}, 3*time.Second)
	}
	c.kill("c")
	awaitView(t, c.procs["a"], []string{"a", "b"}, 5*time.Second)
	awaitView(t, c.procs["b"], []string{"a", "b"}, 5*time.Second)
	// The survivors keep multicasting.
	if err := c.procs["a"].Multicast([]byte("after-failure")); err != nil {
		t.Fatal(err)
	}
	ds := collect(t, c.procs["b"], 1, 5*time.Second)
	if string(ds[0].Payload) != "after-failure" {
		t.Fatalf("payload = %q", ds[0].Payload)
	}
}

func TestSurvivorsContinueLineage(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b", "c")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b", "c"}, 3*time.Second)
	}
	c.kill("c")
	v := awaitView(t, c.procs["a"], []string{"a", "b"}, 5*time.Second)
	if v.Reset {
		t.Fatal("survivor must continue the lineage, not reset")
	}
}

func TestNewcomerJoinsWithReset(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b"}, 3*time.Second)
	}
	// Traffic before the join.
	for i := 0; i < 5; i++ {
		if err := c.procs["a"].Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, c.procs["b"], 5, 5*time.Second)

	nc := c.add("c")
	v := awaitView(t, nc, []string{"a", "b", "c"}, 5*time.Second)
	if !v.Reset {
		t.Fatal("newcomer must be delivered a Reset view")
	}
	vA := awaitView(t, c.procs["a"], []string{"a", "b", "c"}, 5*time.Second)
	if vA.Reset {
		t.Fatal("existing member must not reset on a join")
	}
	// Post-join message reaches everyone including the newcomer.
	if err := c.procs["b"].Multicast([]byte("welcome")); err != nil {
		t.Fatal(err)
	}
	collect(t, c.procs["a"], 5, 5*time.Second) // drain pre-join messages
	dsA := collect(t, c.procs["a"], 1, 5*time.Second)
	dsC := collect(t, nc, 1, 5*time.Second)
	if string(dsA[0].Payload) != "welcome" || string(dsC[0].Payload) != "welcome" {
		t.Fatalf("a=%q c=%q", dsA[0].Payload, dsC[0].Payload)
	}
	if dsA[0].Seq != dsC[0].Seq {
		t.Fatalf("seq mismatch: %d vs %d", dsA[0].Seq, dsC[0].Seq)
	}
}

func TestLossyNetworkStillDeliversInOrder(t *testing.T) {
	c := newCluster(t, simnet.Config{LossRate: 0.05, Seed: 7}, "a", "b", "c")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b", "c"}, 10*time.Second)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := c.procs["a"].Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	dsB := collect(t, c.procs["b"], n, 20*time.Second)
	dsC := collect(t, c.procs["c"], n, 20*time.Second)
	for i := 0; i < n; i++ {
		if dsB[i].Payload[0] != byte(i) || dsC[i].Payload[0] != byte(i) {
			t.Fatalf("order violated at %d under loss", i)
		}
	}
	if st := c.procs["a"].Stats(); st.Retransmits == 0 {
		t.Log("note: no retransmissions observed (loss may not have hit data frames)")
	}
}

func TestPartitionFormsTwoRings(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b", "c", "d")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b", "c", "d"}, 5*time.Second)
	}
	c.net.Partition([]string{"a", "b"}, []string{"c", "d"})
	awaitView(t, c.procs["a"], []string{"a", "b"}, 5*time.Second)
	awaitView(t, c.procs["c"], []string{"c", "d"}, 5*time.Second)
	// Each side keeps working independently.
	if err := c.procs["a"].Multicast([]byte("sideA")); err != nil {
		t.Fatal(err)
	}
	if err := c.procs["c"].Multicast([]byte("sideC")); err != nil {
		t.Fatal(err)
	}
	dsB := collect(t, c.procs["b"], 1, 5*time.Second)
	dsD := collect(t, c.procs["d"], 1, 5*time.Second)
	if string(dsB[0].Payload) != "sideA" || string(dsD[0].Payload) != "sideC" {
		t.Fatalf("b=%q d=%q", dsB[0].Payload, dsD[0].Payload)
	}
}

func TestPartitionHealRemerges(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b", "c", "d")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b", "c", "d"}, 5*time.Second)
	}
	c.net.Partition([]string{"a", "b"}, []string{"c", "d"})
	awaitView(t, c.procs["a"], []string{"a", "b"}, 5*time.Second)
	awaitView(t, c.procs["c"], []string{"c", "d"}, 5*time.Second)
	// Generate traffic on both sides so the lineages diverge.
	if err := c.procs["a"].Multicast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.procs["c"].Multicast([]byte("y")); err != nil {
		t.Fatal(err)
	}
	collect(t, c.procs["b"], 1, 5*time.Second)
	collect(t, c.procs["d"], 1, 5*time.Second)

	c.net.Heal()
	want := []string{"a", "b", "c", "d"}
	for _, addr := range want {
		awaitView(t, c.procs[addr], want, 15*time.Second)
	}
	// After the merge everyone agrees on new messages.
	if err := c.procs["d"].Multicast([]byte("merged")); err != nil {
		t.Fatal(err)
	}
	for _, addr := range want {
		// Drain any leftover pre-merge deliveries, then find "merged".
		deadline := time.After(10 * time.Second)
		for {
			select {
			case d := <-c.procs[addr].Deliveries():
				if d.View == nil && string(d.Payload) == "merged" {
					goto next
				}
			case <-deadline:
				t.Fatalf("%s: merged message never delivered", addr)
			}
		}
	next:
	}
}

func TestMulticastAfterStopErrors(t *testing.T) {
	net := simnet.New(simnet.Config{})
	ep, _ := net.Join("a")
	p, err := Start(fastConfig(NewSimnetTransport(ep)))
	if err != nil {
		t.Fatal(err)
	}
	p.Stop()
	// After Stop, Multicast must fail rather than hang (the submit queue
	// may accept a few buffered messages first).
	for i := 0; i < 300; i++ {
		if err := p.Multicast([]byte("x")); err != nil {
			return
		}
	}
	t.Fatal("Multicast never failed after Stop")
}

func TestStopIdempotent(t *testing.T) {
	net := simnet.New(simnet.Config{})
	ep, _ := net.Join("a")
	p, err := Start(fastConfig(NewSimnetTransport(ep)))
	if err != nil {
		t.Fatal(err)
	}
	p.Stop()
	p.Stop()
}

func TestConfigValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Fatal("nil transport must be rejected")
	}
	net := simnet.New(simnet.Config{MTU: 64})
	ep, _ := net.Join("tiny")
	if _, err := Start(fastConfig(NewSimnetTransport(ep))); err == nil {
		t.Fatal("tiny MTU must be rejected")
	}
}

func TestEmptyPayload(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b"}, 3*time.Second)
	}
	if err := c.procs["a"].Multicast(nil); err != nil {
		t.Fatal(err)
	}
	ds := collect(t, c.procs["b"], 1, 5*time.Second)
	if len(ds[0].Payload) != 0 {
		t.Fatalf("payload = % x", ds[0].Payload)
	}
}

func TestStatsProgress(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b"}, 3*time.Second)
	}
	if err := c.procs["a"].Multicast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	collect(t, c.procs["b"], 1, 5*time.Second)
	time.Sleep(50 * time.Millisecond)
	st := c.procs["a"].Stats()
	if st.Multicasts != 1 || st.ChunksSent != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.TokenRotations == 0 {
		t.Error("token never completed a rotation")
	}
	if st.ViewChanges == 0 {
		t.Error("no view changes counted")
	}
}

// TestViewDeliveredInStreamOrder verifies that the membership event
// appears in the delivery stream after all old-ring messages and before
// all new-ring messages, at every member.
func TestViewDeliveredInStreamOrder(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b", "c")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b", "c"}, 3*time.Second)
	}
	for i := 0; i < 10; i++ {
		if err := c.procs["a"].Multicast([]byte{1, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, c.procs["a"], 10, 5*time.Second)
	collect(t, c.procs["b"], 10, 5*time.Second)
	c.kill("c")
	// Wait for reformation, then send post-view traffic.
	awaitView(t, c.procs["a"], []string{"a", "b"}, 5*time.Second)
	for i := 0; i < 10; i++ {
		if err := c.procs["b"].Multicast([]byte{2, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// In b's raw stream, the 2-member view must precede every phase-2
	// message (phase-1 messages were consumed above).
	deadline := time.After(10 * time.Second)
	seenView := false
	seen2 := 0
	for seen2 < 10 {
		select {
		case d := <-c.procs["b"].Deliveries():
			switch {
			case d.View != nil:
				if len(d.View.Members) == 2 {
					seenView = true
				}
			case len(d.Payload) == 2 && d.Payload[0] == 2:
				if !seenView {
					t.Fatal("phase-2 message delivered before the view change")
				}
				seen2++
			}
		case <-deadline:
			t.Fatalf("only %d phase-2 messages", seen2)
		}
	}
}

// TestFlowControlMaxPerToken verifies that a burst larger than one token
// visit's allowance is spread across visits rather than sent at once.
func TestFlowControlMaxPerToken(t *testing.T) {
	net := simnet.New(simnet.Config{})
	epA, _ := net.Join("a")
	epB, _ := net.Join("b")
	cfgA := fastConfig(NewSimnetTransport(epA))
	cfgA.window = 4
	cfgB := fastConfig(NewSimnetTransport(epB))
	cfgB.window = 4
	pa, err := Start(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Start(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pa.Stop(); pb.Stop() })
	awaitView(t, pa, []string{"a", "b"}, 3*time.Second)
	awaitView(t, pb, []string{"a", "b"}, 3*time.Second)

	rotationsBefore := pa.Stats().TokenRotations
	for i := 0; i < 20; i++ {
		if err := pa.Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ds := collect(t, pb, 20, 10*time.Second)
	for i, d := range ds {
		if d.Payload[0] != byte(i) {
			t.Fatalf("order violated at %d", i)
		}
	}
	// 20 chunks at 4 per visit needs at least 5 visits (≥ ~4 rotations
	// beyond wherever we started).
	rotations := pa.Stats().TokenRotations - rotationsBefore
	if rotations < 4 {
		t.Fatalf("rotations during burst = %d, expected several (flow control)", rotations)
	}
}

// TestMulticastLargerThanRetentionWindow pushes enough traffic through a
// small ring that the garbage collector must run, then verifies a fresh
// message still delivers (GC never outruns the members' aru).
func TestGarbageCollectionUnderSustainedTraffic(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b"}, 3*time.Second)
	}
	const n = 300
	go func() {
		for i := 0; i < n; i++ {
			c.procs["a"].Multicast([]byte{byte(i)})
		}
	}()
	collect(t, c.procs["b"], n, 30*time.Second)
	// Retention must have been garbage-collected along the way; the store
	// is bounded. One more message proves the ring is still healthy.
	if err := c.procs["b"].Multicast([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	ds := collect(t, c.procs["a"], n+1, 30*time.Second)
	if string(ds[n].Payload) != "tail" {
		t.Fatalf("tail = %q", ds[n].Payload)
	}
}

// TestTracedMulticastSpansAndRotationProfiler wires a span recorder and
// metrics registry into one member, sends traced request and reply
// multicasts, and verifies the totem-side phase marks (enqueued,
// transmitted, mirrored for replies) plus the token-rotation profiler's
// samples and histograms.
func TestTracedMulticastSpansAndRotationProfiler(t *testing.T) {
	net := simnet.New(simnet.Config{})
	spans := obs.NewSpanRecorder("a", 64)
	reg := obs.NewRegistry()
	var procs []*Processor
	for _, addr := range []string{"a", "b"} {
		ep, err := net.Join(addr)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig(NewSimnetTransport(ep))
		if addr == "a" {
			cfg.Spans = spans
			cfg.Metrics = reg
		}
		p, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Stop()
		procs = append(procs, p)
	}
	pa, pb := procs[0], procs[1]
	awaitView(t, pa, []string{"a", "b"}, 3*time.Second)
	awaitView(t, pb, []string{"a", "b"}, 3*time.Second)

	if err := pa.MulticastTraced([]byte("req"), 42, false); err != nil {
		t.Fatal(err)
	}
	// Reply phases only stamp an already-open span (late duplicate
	// replies must not fabricate fragments), so open trace 43 the way an
	// executing node would — at request ordering.
	spans.Annotate(43, "g")
	if err := pa.MulticastTraced([]byte("rep"), 43, true); err != nil {
		t.Fatal(err)
	}
	if err := pa.Multicast([]byte("untraced")); err != nil {
		t.Fatal(err)
	}
	collect(t, pb, 3, 5*time.Second)
	collect(t, pa, 3, 5*time.Second)

	spans.FlushIdle(0)
	got := make(map[uint64]obs.Span)
	for _, sp := range spans.Since(0, 0) {
		got[sp.Trace] = sp
	}
	req, ok := got[42]
	if !ok {
		t.Fatalf("no span for trace 42: %+v", got)
	}
	if req.Phases[obs.SpanEnqueued] == 0 || req.Phases[obs.SpanTransmitted] == 0 {
		t.Fatalf("request span missing totem phases: %+v", req)
	}
	if req.Phases[obs.SpanTransmitted] < req.Phases[obs.SpanEnqueued] {
		t.Fatalf("transmit before enqueue: %+v", req)
	}
	rep, ok := got[43]
	if !ok {
		t.Fatalf("no span for trace 43: %+v", got)
	}
	if rep.Phases[obs.SpanReplyEnqueued] == 0 || rep.Phases[obs.SpanReplyTransmitted] == 0 {
		t.Fatalf("reply span missing mirrored phases: %+v", rep)
	}
	if rep.Phases[obs.SpanEnqueued] != 0 {
		t.Fatalf("reply marked with request phases: %+v", rep)
	}
	if len(got) != 2 {
		t.Fatalf("untraced multicast opened a span: %+v", got)
	}

	rots := pa.Rotations(0)
	if len(rots) == 0 {
		t.Fatal("no rotation samples")
	}
	var sawSend bool
	for _, r := range rots {
		if r.HoldUs < 0 || r.IntervalUs < 0 {
			t.Fatalf("negative durations in sample %+v", r)
		}
		if r.ChunksSent > 0 {
			sawSend = true
		}
	}
	if !sawSend {
		t.Fatalf("no rotation recorded the pending-queue drain: %+v", rots)
	}
	for _, name := range []string{"eternal_totem_token_hold_seconds", "eternal_totem_token_interval_seconds"} {
		h := reg.FindHistogram(name)
		if h == nil || h.Count() == 0 {
			t.Fatalf("%s not populated", name)
		}
	}
}
