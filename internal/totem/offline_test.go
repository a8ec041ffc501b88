package totem

import (
	"slices"
	"strings"
	"testing"
	"time"

	"eternal/internal/simnet"
)

// recTransport delivers nothing and remembers the type of every frame
// handed to it, in order; for driving a Processor's token handling directly,
// without a run goroutine, and reading what it put on the wire.
type recTransport struct {
	addr  string
	types []byte
	// last is the most recent frame, decoded.
	last any
}

func (r *recTransport) record(b []byte) error {
	r.types = append(r.types, b[0])
	r.last, _ = decodePacket(slices.Clone(b)) // the caller recycles b
	return nil
}

func (r *recTransport) Addr() string                  { return r.addr }
func (r *recTransport) Send(_ string, b []byte) error { return r.record(b) }
func (r *recTransport) Broadcast(b []byte) error      { return r.record(b) }
func (r *recTransport) Recv() <-chan Packet           { return nil }
func (r *recTransport) MTU() int                      { return simnet.EthernetMTU }
func (r *recTransport) Close() error                  { return nil }

// offlineProcessor builds an operational member "a" of the given ring
// with no run goroutine, so a test can feed it tokens, frames and ring
// formations one at a time and read its state in between.
func offlineProcessor(members ...string) *Processor { return offlineMember("a", members...) }

// offlineMember is offlineProcessor for the member named self: the three
// parts — each of which a test can also build and drive alone, as
// TestMembershipAlone, TestDeliveryAlone and the scheduler tables do —
// wired the way Start wires them.
func offlineMember(self string, members ...string) *Processor {
	cfg := Config{}.withDefaults()
	p := &Processor{
		cfg:        cfg,
		tr:         &recTransport{addr: self},
		addr:       self,
		membership: offlineMembership(self, members...),
		sched:      offlineScheduler(self),
		sendTimes:  make(map[uint64]sendMeta),
	}
	p.delivery = newDelivery(self, nil, p.frameDelivered, p.ownDelivered)
	p.registerMetrics(nil)
	return p
}

// offlineMembership is the membership part of an operational member of
// epoch 1's ring, formed by its first member.
func offlineMembership(self string, members ...string) *membership {
	cfg := Config{}.withDefaults()
	m := &membership{self: self, joinInterval: cfg.JoinInterval, stableFor: cfg.StableFor}
	m.install(&formMsg{Ring: ringIdentity{Epoch: 1, Rep: members[0]}, Members: members}, time.Time{})
	return m
}

// offlineScheduler is a scheduler fresh on a ring, idle since for ever.
func offlineScheduler(self string) scheduler {
	cfg := Config{}.withDefaults()
	return newScheduler(self, cfg.Tick, cfg.TokenLossTimeout, time.Time{})
}

// wire returns the types of the data, token and hurry frames p has sent
// since the last call.
func wire(p *Processor) string {
	r := p.tr.(*recTransport)
	defer func() { r.types = nil }()
	names := map[byte]string{ptPacked: "data", ptToken: "token", ptHurry: "hurry"}
	var out []string
	for _, t := range r.types {
		if name, ok := names[t]; ok {
			out = append(out, name)
		}
	}
	return strings.Join(out, " ")
}

// TestUnservableRequestIsTombstoned: a sequence number nobody can
// retransmit (its frame died with its sender) rides the token's request
// list rotation after rotation. Every visit must count against it, so that
// after missThreshold visits the member skips it and delivery moves on —
// counting only the visit that first listed it left the ring wedged behind
// the hole for good.
func TestUnservableRequestIsTombstoned(t *testing.T) {
	p := offlineProcessor("a", "b", "c")
	p.myAru, p.gcLow, p.seqHigh = 5, 5, 5
	now := time.Now()
	var carried []uint64
	for visit := 1; visit <= missThreshold+1; visit++ {
		tok := &tokenMsg{Ring: p.ring, Round: uint64(3 * visit), Seq: 6, Rtr: carried}
		p.handleToken(tok, now)
		carried = tok.Rtr // b and c cannot serve it either: it comes back as it left
		if visit <= missThreshold && p.myAru != 5 {
			t.Fatalf("visit %d: aru = %d, hole skipped before the threshold", visit, p.myAru)
		}
	}
	if p.myAru != 6 {
		t.Fatalf("aru = %d after %d visits with seq 6 unservable: delivery is wedged", p.myAru, missThreshold+1)
	}
	if n := p.Stats().Tombstones; n != 1 {
		t.Fatalf("Tombstones = %d, want 1", n)
	}
}

// TestDepartedMembersLastFramesStillComplete: a member that dies leaves a
// message half-delivered here while a faster peer already has all of it.
// The ring reforms, and the old ring's last frame reaches this member
// afterwards, by retransmission. The message must complete — the peer
// delivered it — and only then, at the view's position in the stream, may
// the departed member's reassembly state go.
func TestDepartedMembersLastFramesStillComplete(t *testing.T) {
	p := offlineProcessor("a", "b", "d")
	now := time.Now()
	frag := func(seq uint64, idx uint32, body string) *dataMsg {
		return &dataMsg{Ring: p.ring, Seq: seq, Chunks: []chunk{{
			Sender: "d", MsgID: 1, FragIdx: idx, FragTotal: 3, Payload: []byte(body),
		}}}
	}
	p.handleData(frag(1, 0, "one "), now)
	p.handleData(frag(2, 1, "two "), now)
	// d dies; b saw seq 3, so the new ring starts after it.
	next := ringIdentity{Epoch: 2, Rep: "a"}
	p.enterGather(now, "token-loss")
	p.installRing(&formMsg{Ring: next, Members: []string{"a", "b"}, Lineage: p.prevRing, StartSeq: 3}, now)
	last := frag(3, 2, "three")
	last.Ring = next // b retransmits it under the new ring
	p.handleData(last, now)

	var got []Delivery
	for len(got) < 2 {
		select {
		case d := <-p.Deliveries():
			got = append(got, d)
		case <-time.After(time.Second):
			t.Fatalf("got %d deliveries, want d's message then the view", len(got))
		}
	}
	if string(got[0].Payload) != "one two three" || got[0].Sender != "d" {
		t.Fatalf("first delivery = %q from %q, want d's whole message", got[0].Payload, got[0].Sender)
	}
	if got[1].View == nil || len(got[1].View.Members) != 2 {
		t.Fatalf("second delivery = %+v, want the two-member view", got[1])
	}
	if len(p.reasm) != 0 {
		t.Fatalf("reassembly state for %d departed senders kept past the view", len(p.reasm))
	}
}
