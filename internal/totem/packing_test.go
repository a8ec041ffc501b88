package totem

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"eternal/internal/simnet"
)

// TestPackedFrameMixesTwoMessages pins the core packing behaviour
// deterministically: both messages are enqueued before the ring forms, so
// the first token visit sees all three chunks pending. Message A is sized
// to fragment into one full chunk plus a tail that leaves a frame exactly
// B's room; the tail cannot share a frame with the full chunk but can with
// B, so the second frame carries fragments of two different application
// messages under one sequence number.
func TestPackedFrameMixesTwoMessages(t *testing.T) {
	c := newCluster(t, simnet.Config{}, "a", "b")
	chunkSize := simnet.EthernetMTU - fragMargin - len("a")
	msgB := []byte("tail")
	room := (&chunk{Sender: "a", Payload: msgB}).wireCost() // what B adds to a frame
	msgA := bytes.Repeat([]byte{0x5A}, 2*chunkSize-room)    // frags: [chunkSize, chunkSize-room]
	if err := c.procs["a"].Multicast(msgA); err != nil {
		t.Fatal(err)
	}
	if err := c.procs["a"].Multicast(msgB); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b"}, 3*time.Second)
	}
	for _, p := range []*Processor{c.procs["a"], c.procs["b"]} {
		ds := collect(t, p, 2, 5*time.Second)
		if !bytes.Equal(ds[0].Payload, msgA) || !bytes.Equal(ds[1].Payload, msgB) {
			t.Fatalf("%s: wrong payloads (lens %d, %d)", p.Addr(), len(ds[0].Payload), len(ds[1].Payload))
		}
		// A completes at the packed frame carrying its tail fragment and B,
		// so both deliveries share that frame's sequence number.
		if ds[0].Seq != ds[1].Seq {
			t.Fatalf("%s: expected shared seq for packed frame, got %d and %d",
				p.Addr(), ds[0].Seq, ds[1].Seq)
		}
	}
	st := c.procs["a"].Stats()
	if st.ChunksSent != 3 || st.DataFrames != 2 || st.PackedChunks != 2 {
		t.Fatalf("stats = chunks %d, frames %d, packed %d; want 3, 2, 2",
			st.ChunksSent, st.DataFrames, st.PackedChunks)
	}
}

// TestPackedFrameRetransmissionUnderLoss drives a packed workload over a
// lossy medium: dropped packed frames must be recovered whole via the
// token's retransmission list, preserving agreed order on every member.
// The token-loss timeout is raised well above the recovery time so the
// ring never falls apart into single-member rings (whose view-synchrony
// semantics legitimately drop messages); every loss must instead be
// repaired by retransmission within the one lineage.
func TestPackedFrameRetransmissionUnderLoss(t *testing.T) {
	c := &cluster{t: t, net: simnet.New(simnet.Config{LossRate: 0.15, Seed: 7}), procs: make(map[string]*Processor)}
	for _, addr := range []string{"a", "b"} {
		ep, err := c.net.Join(addr)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig(NewSimnetTransport(ep))
		cfg.TokenLossTimeout = 2 * time.Second
		cfg.tokenResend = 10 * time.Millisecond
		p, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.procs[addr] = p
	}
	t.Cleanup(func() {
		for _, p := range c.procs {
			p.Stop()
		}
	})
	const n = 100
	// Enqueue before the ring forms so token visits drain dense batches and
	// nearly every data frame is packed. ~600-byte payloads pack two chunks
	// per frame, spreading the burst over ~50 data frames so that at 15%
	// loss at least one frame is dropped with near certainty.
	want := make([][]byte, n)
	pad := bytes.Repeat([]byte{'.'}, 600)
	for i := 0; i < n; i++ {
		want[i] = append([]byte(fmt.Sprintf("m-%03d", i)), pad...)
		if err := c.procs["a"].Multicast(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b"}, 10*time.Second)
	}
	dsA := collect(t, c.procs["a"], n, 30*time.Second)
	dsB := collect(t, c.procs["b"], n, 30*time.Second)
	for i := 0; i < n; i++ {
		if !bytes.Equal(dsA[i].Payload, want[i]) || !bytes.Equal(dsB[i].Payload, want[i]) {
			t.Fatalf("order violated at %d", i)
		}
	}
	stA, stB := c.procs["a"].Stats(), c.procs["b"].Stats()
	if stA.PackedChunks == 0 {
		t.Fatal("expected packed frames in a dense burst")
	}
	if stA.Retransmits+stB.Retransmits == 0 {
		t.Fatal("expected retransmissions at 15% loss")
	}
}

// TestPackedFramesAcrossReformation covers packing around membership
// changes: packed delivery before a member dies, packed delivery among the
// survivors after the reformation, and packed delivery to a fresh joiner
// whose first view carries Reset=true.
func TestPackedFramesAcrossReformation(t *testing.T) {
	burst := func(p *Processor, tag string, n int) {
		for i := 0; i < n; i++ {
			if err := p.Multicast([]byte(fmt.Sprintf("%s-%03d", tag, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(ds []Delivery, tag string) {
		t.Helper()
		for i, d := range ds {
			if want := fmt.Sprintf("%s-%03d", tag, i); string(d.Payload) != want {
				t.Fatalf("at %d: got %q want %q", i, d.Payload, want)
			}
		}
	}

	c := newCluster(t, simnet.Config{}, "a", "b", "c")
	for _, p := range c.procs {
		awaitView(t, p, []string{"a", "b", "c"}, 5*time.Second)
	}
	const n = 40
	burst(c.procs["a"], "one", n)
	for _, addr := range []string{"a", "b", "c"} {
		check(collect(t, c.procs[addr], n, 10*time.Second), "one")
	}

	c.kill("c")
	awaitView(t, c.procs["a"], []string{"a", "b"}, 5*time.Second)
	awaitView(t, c.procs["b"], []string{"a", "b"}, 5*time.Second)
	burst(c.procs["a"], "two", n)
	check(collect(t, c.procs["a"], n, 10*time.Second), "two")
	check(collect(t, c.procs["b"], n, 10*time.Second), "two")

	d := c.add("d")
	vd := awaitView(t, d, []string{"a", "b", "d"}, 5*time.Second)
	if !vd.Reset {
		t.Fatalf("fresh joiner's view not Reset: %+v", vd)
	}
	awaitView(t, c.procs["a"], []string{"a", "b", "d"}, 5*time.Second)
	burst(c.procs["a"], "three", n)
	check(collect(t, d, n, 10*time.Second), "three")
	check(collect(t, c.procs["a"], n, 10*time.Second), "three")

	if st := c.procs["a"].Stats(); st.PackedChunks == 0 {
		t.Fatal("expected packed frames across the bursts")
	}
}
