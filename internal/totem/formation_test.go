package totem

import (
	"slices"
	"testing"
	"time"

	"eternal/internal/simnet"
)

// gatheringMember is offlineMember with the configured node set nodes:
// fresh, or (ring non-nil) on epoch 1's ring of ring, and gathering since
// t0. A test feeds it joins and ticks one at a time.
func gatheringMember(t0 time.Time, self string, nodes, ring []string) *Processor {
	p := offlineMember(self, self)
	p.membership = newMembership(self, Config{Nodes: nodes}.withDefaults())
	if ring != nil {
		p.membership.install(&formMsg{Ring: ringIdentity{Epoch: 1, Rep: ring[0]}, Members: ring}, t0)
	}
	p.enterGather(t0, "")
	return p
}

// installedView returns the view of the ring p last installed: still
// waiting for the old ring's messages up to its start, or delivered.
func installedView(t *testing.T, p *Processor) Membership {
	t.Helper()
	if n := len(p.pendingViews); n > 0 {
		return p.pendingViews[n-1].view
	}
	select {
	case v := <-p.Views():
		return v
	case <-time.After(time.Second):
		t.Fatalf("%s installed no ring", p.addr)
		return Membership{}
	}
}

func gathering(t *testing.T, p *Processor, after string) {
	t.Helper()
	if p.state != stateGather {
		t.Fatalf("formed ring %+v of %v after %s", p.ring, p.members, after)
	}
}

// TestConfiguredSetFormsAtItsCompletingJoin: at start-up, the
// representative forms the ring of the configured nodes at the join of the
// last of them to be heard — with no tick in between, let alone StableFor.
func TestConfiguredSetFormsAtItsCompletingJoin(t *testing.T) {
	t0 := time.Unix(1_000, 0)
	nodes := []string{"a", "b", "c"}
	p := gatheringMember(t0, "a", nodes, nil)
	p.handleJoin(&joinMsg{Sender: "a", Alive: []string{"a"}}, t0)
	gathering(t, p, "its own join")
	p.handleJoin(&joinMsg{Sender: "c", Alive: []string{"c"}, HighSeq: 0}, t0)
	gathering(t, p, "c's join alone")
	p.handleJoin(&joinMsg{Sender: "b", Alive: []string{"b", "c"}}, t0.Add(time.Millisecond))
	if p.state != stateOperational || p.ring != (ringIdentity{Epoch: 1, Rep: "a"}) || !slices.Equal(p.members, nodes) {
		t.Fatalf("after the completing join: state %d, ring %+v of %v; want ring 1@a of %v", p.state, p.ring, p.members, nodes)
	}
	if v := installedView(t, p); !slices.Equal(v.Members, nodes) || v.Reset {
		t.Fatalf("view %+v, want a fresh lineage's first ring of %v", v, nodes)
	}

	// Only the representative forms: b hears everybody and waits for a.
	b := gatheringMember(t0, "b", nodes, nil)
	b.handleJoin(&joinMsg{Sender: "a", Alive: []string{"a"}}, t0)
	b.handleJoin(&joinMsg{Sender: "c", Alive: []string{"c"}}, t0)
	gathering(t, b, "every join, as a non-representative")
}

// TestConfiguredSetMissingMemberWaitsStableFor: with one configured node
// never heard — crashed, or not started yet — no join completes the set,
// and the representative forms the ring of those it hears only once that
// set has stood still for StableFor, exactly as without a configured set.
func TestConfiguredSetMissingMemberWaitsStableFor(t *testing.T) {
	t0 := time.Unix(1_000, 0)
	p := gatheringMember(t0, "a", []string{"a", "b", "c"}, nil)
	p.handleJoin(&joinMsg{Sender: "b", Alive: []string{"a", "b"}}, t0)
	gathering(t, p, "b's join with c missing")
	tick := p.cfg.Tick
	p.onTick(t0.Add(tick)) // the tick that first sees {a, b}
	for at := 2 * tick; at < tick+p.cfg.StableFor; at += tick {
		p.onTick(t0.Add(at))
		gathering(t, p, "a tick within StableFor")
	}
	p.onTick(t0.Add(tick + p.cfg.StableFor))
	if p.state != stateOperational || !slices.Equal(p.members, []string{"a", "b"}) {
		t.Fatalf("state %d, members %v after StableFor; want the ring of a and b", p.state, p.members)
	}
}

// TestConfiguredSetPlusLateJoinerFormsAtOnce: a node outside the set
// joining a ring of the whole set is heard by a current join, and so are
// the members it pulls into the gather: the set completes as soon as they
// have all answered, and the ring formed takes the newcomer in.
func TestConfiguredSetPlusLateJoinerFormsAtOnce(t *testing.T) {
	t0 := time.Unix(1_000, 0)
	nodes := []string{"a", "b", "c"}
	p := offlineMember("a", nodes...)
	p.membership = newMembership("a", Config{Nodes: nodes}.withDefaults())
	p.membership.install(&formMsg{Ring: ringIdentity{Epoch: 1, Rep: "a"}, Members: nodes}, t0)
	p.handleJoin(&joinMsg{Sender: "d", Alive: []string{"d"}, MaxEpoch: 1}, t0)
	gathering(t, p, "the newcomer's join")
	p.handleJoin(&joinMsg{Sender: "b", Alive: []string{"a", "b", "d"}, PrevRing: p.prevRing, MaxEpoch: 1, HighSeq: 4}, t0)
	gathering(t, p, "b's join with c unheard")
	p.handleJoin(&joinMsg{Sender: "c", Alive: []string{"a", "c", "d"}, PrevRing: p.prevRing, MaxEpoch: 1, HighSeq: 4}, t0)
	want := []string{"a", "b", "c", "d"}
	if p.state != stateOperational || p.ring != (ringIdentity{Epoch: 2, Rep: "a"}) || !slices.Equal(p.members, want) {
		t.Fatalf("state %d, ring %+v of %v; want ring 2@a of %v", p.state, p.ring, p.members, want)
	}
	if v := installedView(t, p); v.StartSeq != 4 || v.Reset {
		t.Fatalf("view %+v, want the lineage continued from seq 4", v)
	}
}

// TestConfiguredSetUnknownKeepsStableFor: the zero value is the set
// unknown, and then no join forms a ring; a tick does, StableFor after the
// alive set last changed.
func TestConfiguredSetUnknownKeepsStableFor(t *testing.T) {
	t0 := time.Unix(1_000, 0)
	p := gatheringMember(t0, "a", nil, nil)
	p.handleJoin(&joinMsg{Sender: "a", Alive: []string{"a"}}, t0)
	p.handleJoin(&joinMsg{Sender: "b", Alive: []string{"a", "b"}}, t0)
	p.handleJoin(&joinMsg{Sender: "c", Alive: []string{"a", "b", "c"}}, t0)
	gathering(t, p, "every join, with no configured set")
	tick := p.cfg.Tick
	p.onTick(t0.Add(tick))
	p.onTick(t0.Add(tick + p.cfg.StableFor - 1))
	gathering(t, p, "a tick within StableFor")
	p.onTick(t0.Add(tick + p.cfg.StableFor))
	if p.state != stateOperational || !slices.Equal(p.members, []string{"a", "b", "c"}) {
		t.Fatalf("state %d, members %v after StableFor; want the ring of a, b and c", p.state, p.members)
	}
}

// TestConfiguredSetStaleJoinDoesNotComplete: a join still in flight from
// the gather before the ring this member last installed does not count.
// Its sender has delivered on that ring since, so its HighSeq is too low:
// a ring formed on it could start below what the sender holds. The set
// completes at the sender's current join, which carries the seq it knows.
func TestConfiguredSetStaleJoinDoesNotComplete(t *testing.T) {
	t0 := time.Unix(1_000, 0)
	nodes := []string{"a", "b", "c"}
	p := gatheringMember(t0, "a", nodes, nodes)
	lineage := p.prevRing
	p.seqHigh = 5
	p.handleJoin(&joinMsg{Sender: "b", Alive: []string{"a", "b"}, PrevRing: lineage, MaxEpoch: 1, HighSeq: 5}, t0)
	// c's join from the gather that formed ring 1: the fresh lineage, epoch 0.
	p.handleJoin(&joinMsg{Sender: "c", Alive: []string{"a", "b", "c"}, HighSeq: 0}, t0)
	gathering(t, p, "c's stale join")
	p.handleJoin(&joinMsg{Sender: "c", Alive: []string{"a", "b", "c"}, PrevRing: lineage, MaxEpoch: 1, HighSeq: 9}, t0)
	if p.state != stateOperational || !slices.Equal(p.members, nodes) {
		t.Fatalf("state %d, members %v after c's current join; want the ring of %v", p.state, p.members, nodes)
	}
	if v := installedView(t, p); v.StartSeq != 9 {
		t.Fatalf("ring starts at seq %d, want c's 9", v.StartSeq)
	}
}

// TestConfiguredSetRingFormsWithoutStableFor runs real processors with a
// StableFor no test would wait out: the configured ring forms at once, and
// a member that crashes and comes back rejoins as soon as its join knows
// the current epoch.
func TestConfiguredSetRingFormsWithoutStableFor(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	c := &cluster{t: t, net: simnet.New(simnet.Config{}), procs: make(map[string]*Processor)}
	t.Cleanup(func() {
		for _, p := range c.procs {
			p.Stop()
		}
	})
	start := func(addr string) *Processor {
		ep, err := c.net.Join(addr)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig(NewSimnetTransport(ep))
		cfg.StableFor, cfg.Nodes = time.Hour, nodes
		p, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.procs[addr] = p
		return p
	}
	for _, a := range nodes {
		start(a)
	}
	for _, a := range nodes {
		awaitView(t, c.procs[a], nodes, 2*time.Second)
	}
	c.kill("c")
	nc := start("c")
	if v := awaitView(t, nc, nodes, 2*time.Second); !v.Reset {
		t.Fatalf("the restarted member's view %+v continues a lineage it never had", v)
	}
	if v := awaitView(t, c.procs["a"], nodes, 2*time.Second); v.Reset {
		t.Fatalf("a survivor's view %+v resets", v)
	}
}
