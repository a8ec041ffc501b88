package totem

import (
	"slices"
	"testing"
	"time"

	"eternal/internal/obs"
)

// The scheduler is a value with no Processor, transport or clock behind it,
// so its rules are tables: a state, what the mechanism reports, the answer.

// TestSchedulerEndVisit: how a token visit ends, and at what pace.
func TestSchedulerEndVisit(t *testing.T) {
	now := time.Unix(1_000, 0)
	fresh := offlineScheduler("a")
	tick, grace := fresh.tick, fresh.idleGrace()
	// busy is a visit of a 3-ring that sequenced foreground data and left
	// nothing behind — the only kind that may end with the token staying.
	busy := tokenVisit{members: 3, fgSent: 1}
	idle := func(rotations uint32) tokenVisit { return tokenVisit{members: 3, idleHops: 3 * rotations} }
	sole := func(s *scheduler) { s.soleSender, s.soleSince = "a", now.Add(-grace) }
	owed := func(s *scheduler) { s.owed, s.owedAt = 1, now }
	quiet := func(s *scheduler) { s.lastActivityAt = now.Add(-grace) }
	// lastReply is how long after its request's visit the last owed reply
	// came, with the token usually an eighth of a Tick away.
	lastReply := func(d time.Duration) func(*scheduler) {
		return func(s *scheduler) { s.replyDelay, s.rotation = d, tick/8 }
	}
	// timedOut: the last hold met its deadline with its reply still owed.
	timedOut := func(s *scheduler) { s.resting = obs.RestReplyOwed; s.released(now) }
	chunks := tokenVisit{members: 3, fgSent: 1, bulk: 5} // busy, with the visit's bulk quota still to go out
	with := func(fs ...func(*scheduler)) func(*scheduler) {
		return func(s *scheduler) {
			for _, f := range fs {
				f(s)
			}
		}
	}
	for _, row := range []struct {
		name    string
		state   func(*scheduler)
		visit   tokenVisit
		want    action
		resting string
		pace    int
	}{
		{name: "busy ring: forward", visit: busy, want: actForward},
		{name: "sole sender for idleGrace: rest", state: sole, visit: busy, want: actRest, resting: obs.RestSoleSender},
		{name: "sole sender a moment short of idleGrace: forward",
			state: func(s *scheduler) { s.soleSender, s.soleSince = "a", now.Add(-grace+1) }, visit: busy, want: actForward},
		{name: "a peer is the sole sender: forward",
			state: func(s *scheduler) { s.soleSender, s.soleSince = "b", now.Add(-grace) }, visit: busy, want: actForward},
		{name: "reply owed: hold", state: owed, visit: busy, want: actRest, resting: obs.RestReplyOwed},
		{name: "reply owed, sole sender too: the rest it would become", state: with(owed, sole), visit: busy, want: actRest, resting: obs.RestSoleSender},
		{name: "reply owed, the last one prompt: hold", state: with(owed, lastReply(tick/8)), visit: busy, want: actRest, resting: obs.RestReplyOwed},
		{name: "reply owed, the last one later than the token's usual absence: forward",
			state: with(owed, lastReply(tick/8+1)), visit: busy, want: actForward},
		{name: "reply owed, the last hold timed out: forward", state: with(owed, timedOut), visit: busy, want: actForward},
		{name: "hurried: neither rest", state: with(sole, func(s *scheduler) { s.hurried = true }), visit: busy, want: actForward},
		{name: "hurried: nor hold", state: with(owed, func(s *scheduler) { s.hurried = true }), visit: busy, want: actForward},
		{name: "bulk waiting, reply owed: hold, the quota behind it", state: owed, visit: chunks, want: actRest, resting: obs.RestReplyOwed},
		{name: "bulk waiting, reply owed, the last one inside a Tick: hold — the burst costs more than the servant",
			state: with(owed, lastReply(tick)), visit: chunks, want: actRest, resting: obs.RestReplyOwed},
		{name: "bulk waiting, reply owed, the last one slower than a Tick: forward", state: with(owed, lastReply(tick+1)), visit: chunks, want: actForward},
		{name: "bulk waiting, reply owed, the last hold timed out: forward", state: with(owed, timedOut), visit: chunks, want: actForward},
		{name: "bulk waiting, sole sender: forward", state: sole, visit: chunks, want: actForward},
		{name: "bulk waiting, sole sender with a reply owed: the hold, not the rest", state: with(sole, owed), visit: chunks, want: actRest, resting: obs.RestReplyOwed},
		{name: "bulk waiting, reply owed, hurried: forward", state: with(owed, func(s *scheduler) { s.hurried = true }), visit: chunks, want: actForward},
		{name: "bulk waiting, reply owed, retransmission outstanding: forward", state: owed, visit: tokenVisit{members: 3, fgSent: 1, bulk: 5, rtr: 1}, want: actForward},
		{name: "retransmission outstanding: forward", state: with(sole, owed), visit: tokenVisit{members: 3, fgSent: 1, rtr: 1}, want: actForward},
		{name: "chunks left over: forward", state: with(sole, owed), visit: tokenVisit{members: 3, fgSent: 1, pending: 2}, want: actForward},
		{name: "nothing sent: forward", state: with(sole, owed), visit: tokenVisit{members: 3}, want: actForward},
		{name: "only background sent on an idle ring: paced, not rested",
			state: with(sole, quiet), visit: idle(1), want: actPark, pace: 1},

		{name: "idle for less than a rotation: forward", state: quiet, visit: tokenVisit{members: 3, idleHops: 2}, want: actForward},
		{name: "idle for 1 rotation, active a moment ago: one tick", visit: idle(1), want: actPark, pace: 1,
			state: func(s *scheduler) { s.lastActivityAt = now.Add(-grace + 1) }},
		{name: "idle for 5 rotations, active a moment ago: still one tick", visit: idle(5), want: actPark, pace: 1,
			state: func(s *scheduler) { s.lastActivityAt = now.Add(-grace + 1) }},
		{name: "idle for 1 rotation: one tick", state: quiet, visit: idle(1), want: actPark, pace: 1},
		{name: "idle for 2 rotations: two ticks", state: quiet, visit: idle(2), want: actPark, pace: 2},
		{name: "idle for 3 rotations: four ticks", state: quiet, visit: idle(3), want: actPark, pace: 4},
		{name: "idle for 50 rotations: capped", state: quiet, visit: idle(50), want: actPark, pace: maxPaceTicks},
		{name: "idle, a rotation may take a quarter of the loss timeout: clamped",
			state: with(quiet, func(s *scheduler) { s.lossTimeout = 4 * 3 * 2 * s.tick }), visit: idle(50), want: actPark, pace: 2},
		{name: "idle but hurried: forward", state: with(quiet, func(s *scheduler) { s.hurried = true }), visit: idle(3), want: actForward},
		{name: "idle but bulk waiting: forward", state: quiet, visit: tokenVisit{members: 3, idleHops: 9, bulk: 1}, want: actForward},
		{name: "alone on the ring, busy: one tick, never a hot loop", visit: tokenVisit{members: 1, fgSent: 1}, want: actPark, pace: 1},
		{name: "alone on the ring, sole sender with a reply owed: paced, not rested",
			state: with(sole, owed), visit: tokenVisit{members: 1, fgSent: 1}, want: actPark, pace: 1},
		{name: "alone on the ring, idle for 3 rotations: four ticks", state: quiet, visit: tokenVisit{members: 1, idleHops: 3}, want: actPark, pace: 4},
	} {
		s := fresh
		s.lastActivityAt = now
		if row.state != nil {
			row.state(&s)
		}
		s.lastPaceTicks = 7 // whatever the previous forward left
		if got := s.endVisit(row.visit, now); got != row.want || s.resting != row.resting || s.lastPaceTicks != row.pace {
			t.Errorf("%s: action %d resting %q pace %d, want action %d resting %q pace %d",
				row.name, got, s.resting, s.lastPaceTicks, row.want, row.resting, row.pace)
			continue
		}
		switch row.want {
		case actRest:
			if !s.parkedUntil.Equal(now.Add(tick)) {
				t.Errorf("%s: rest until %v, want one Tick", row.name, s.parkedUntil.Sub(now))
			}
		case actPark:
			if !s.parkedUntil.Equal(now.Add(time.Duration(row.pace-1) * tick)) {
				t.Errorf("%s: parked for %v at pace %d", row.name, s.parkedUntil.Sub(now), row.pace)
			}
		}
	}
}

// TestSchedulerKeepResting: whether the token stays after a submission was
// sequenced from it where it rests.
func TestSchedulerKeepResting(t *testing.T) {
	now := time.Unix(1_000, 0)
	fresh := offlineScheduler("a")
	// A hold with owed replies still out (0: it has just ended), here as the
	// sole sender or not; and a sole sender's rest.
	hold := func(owed int, sole bool) func(*scheduler) {
		return func(s *scheduler) {
			s.resting, s.owed = obs.RestReplyOwed, owed
			if sole {
				s.soleSender, s.soleSince = "a", now.Add(-s.idleGrace())
			}
		}
	}
	rest := func(s *scheduler) { s.resting = obs.RestSoleSender }
	for _, row := range []struct {
		name          string
		state         func(*scheduler)
		pending, bulk int
		want          bool
	}{
		{name: "hold, a reply still owed: stay", state: hold(1, false), want: true},
		{name: "hold, a reply still owed, bulk waiting: stay", state: hold(1, false), bulk: 5, want: true},
		{name: "hold ended: release", state: hold(0, false)},
		{name: "hold ended, sole sender by now: on as its rest", state: hold(0, true), want: true},
		{name: "hold ended, sole sender, bulk waiting: release, not rest", state: hold(0, true), bulk: 5},
		{name: "sole sender's rest: stay", state: rest, want: true},
		{name: "sole sender's rest, a window's worth left over: release", state: rest, pending: 3},
		{name: "hold, a reply still owed, a window's worth left over: release", state: hold(1, false), pending: 3},
	} {
		s := fresh
		row.state(&s)
		if got := s.keepResting(row.pending, row.bulk, now); got != row.want {
			t.Errorf("%s: keepResting = %v", row.name, got)
		}
	}
}

// TestSchedulerSubmitted: what a fresh submission does about the token.
func TestSchedulerSubmitted(t *testing.T) {
	now := time.Unix(1_000, 0)
	fresh := offlineScheduler("a")
	grace := fresh.idleGrace()
	resting := func(s *scheduler) { s.resting, s.parkedUntil = obs.RestSoleSender, now.Add(s.tick/2) }
	overdue := func(s *scheduler) { s.resting, s.parkedUntil = obs.RestReplyOwed, now }
	leftIdle := func(s *scheduler) { s.departed(1) }
	leftBusy := func(s *scheduler) { s.departed(0) }
	peerAlone := func(s *scheduler) { s.departed(0); s.soleSender, s.soleSince = "b", now.Add(-grace) }
	for _, row := range []struct {
		name  string
		state func(*scheduler)
		class class
		kept  bool
		want  action
		wants bool // wantToken afterwards
	}{
		{name: "urgent, token resting here: served in place", state: resting, class: classUrgent, kept: true, want: actServe},
		{name: "urgent, rest past its deadline: released", state: overdue, class: classUrgent, kept: true, want: actRelease},
		{name: "bulk, token resting here: released", state: resting, class: classBulk, kept: true, want: actRelease},
		{name: "urgent, token paced here: released", class: classUrgent, kept: true, want: actRelease},
		{name: "lazy, token paced here: left alone", class: classLazy, kept: true, want: actNone},
		{name: "background, token resting here: left alone", state: resting, class: classBackground, kept: true, want: actNone},
		{name: "urgent, token left idle: nudge", state: leftIdle, class: classUrgent, want: actNudge, wants: true},
		{name: "bulk, token left idle: nudge", state: leftIdle, class: classBulk, want: actNudge, wants: true},
		{name: "urgent, token left busy: on its way", state: leftBusy, class: classUrgent, want: actNone, wants: true},
		{name: "urgent, token left busy for a peer alone for idleGrace: nudge", state: peerAlone, class: classUrgent, want: actNudge, wants: true},
		{name: "urgent, no departure since the last nudge: none left",
			state: func(s *scheduler) { s.departed(1); s.canNudge = false }, class: classUrgent, want: actNone, wants: true},
		{name: "lazy, token left idle: waits for whatever visit comes", state: leftIdle, class: classLazy, want: actNone},
		{name: "background, token left idle: likewise", state: leftIdle, class: classBackground, want: actNone},
	} {
		s := fresh
		if row.state != nil {
			row.state(&s)
		}
		if got := s.submitted(row.class, row.kept, now); got != row.want || s.wantToken != row.wants {
			t.Errorf("%s: action %d wantToken %v, want action %d wantToken %v", row.name, got, s.wantToken, row.want, row.wants)
		}
		if row.want == actNudge && (s.canNudge || !s.hurried || s.submitted(row.class, row.kept, now) != actNone) {
			t.Errorf("%s: the one nudge of this departure was not spent", row.name)
		}
	}
}

// TestRingChangeLeavesNothingInTheScheduler: whatever the scheduler learnt on
// a ring — a hold and its owed count, a late reply's delay, a sole-sender run, a
// nudge heard or spent, the rotation estimate — is gone when the member
// leaves the ring and when it enters the next, together with the token it
// kept. Field-by-field resets used to miss five of these.
func TestRingChangeLeavesNothingInTheScheduler(t *testing.T) {
	for _, change := range []struct {
		name string
		do   func(*Processor, time.Time)
	}{
		{"enterGather", func(p *Processor, at time.Time) { p.enterGather(at, "token-loss") }},
		{"installRing", func(p *Processor, at time.Time) {
			// b forms it, so a does not inject (and forward) the first token.
			p.installRing(&formMsg{Ring: ringIdentity{Epoch: 2, Rep: "b"}, Members: []string{"a", "b"}, Lineage: p.prevRing, StartSeq: p.seqHigh}, at)
		}},
	} {
		p := holdProcessor()
		now := time.Unix(1_000, 0)
		p.enqueue(request(), now)
		p.enqueue(request(), now)
		visit(p, now)
		if p.sched.resting != obs.RestReplyOwed || p.sched.owed != 2 || p.parkedToken == nil {
			t.Fatalf("%s: resting %q owed %d: no hold to lose", change.name, p.sched.resting, p.sched.owed)
		}
		p.sched.replyDelay, p.sched.hurried, p.sched.canNudge, p.sched.leftIdle, p.sched.wantToken = time.Second, true, true, true, true
		p.quotaHeld = true
		p.sched.soleSender, p.sched.soleSince = "a", now.Add(-time.Second)
		p.sched.rotation, p.sched.lastPaceTicks = p.cfg.Tick/4, 3

		at := now.Add(time.Second)
		change.do(p, at)
		if want := newScheduler("a", p.cfg.Tick, p.cfg.TokenLossTimeout, at); p.sched != want {
			t.Errorf("%s left the scheduler at\n %+v, want\n %+v", change.name, p.sched, want)
		}
		if p.parkedToken != nil || p.lastSentToken != nil || p.quotaHeld {
			t.Errorf("%s kept the old ring's token, or the bulk quota held behind it", change.name)
		}
		// A reply the old ring's visit was owed must not count against, or
		// disarm, holding on the new one.
		p.enqueue(reply(), at.Add(p.cfg.Tick))
		if p.sched.owed != 0 || p.sched.replyDelay != 0 || !p.sched.holdPays(0) {
			t.Errorf("%s: owed %d, last reply %v late after a reply to the old ring's request", change.name, p.sched.owed, p.sched.replyDelay)
		}
	}
}

// TestMembershipAlone drives the membership part with no Processor: gather,
// hear a peer, form once the alive set is stable — as the representative
// only — install, and tell foreign, stale and own traffic apart afterwards.
func TestMembershipAlone(t *testing.T) {
	const interval = 10 * time.Millisecond
	t0 := time.Unix(1_000, 0)
	a := &membership{self: "a", joinInterval: interval, stableFor: 2 * interval}
	b := &membership{self: "b", joinInterval: interval, stableFor: 2 * interval}
	a.gather(t0)
	b.gather(t0)
	ja, jb := a.join(7, t0), b.join(9, t0)
	if !slices.Equal(ja.Alive, []string{"a"}) || ja.HighSeq != 7 || a.joinDue(t0.Add(interval-1)) || !a.joinDue(t0.Add(interval)) {
		t.Fatalf("a's join %+v, due again before %v", ja, interval)
	}
	if hs := a.recordJoin(jb, t0); hs != 9 {
		t.Fatalf("lineage peer's HighSeq = %d, want 9", hs)
	}
	if hs := a.recordJoin(&joinMsg{Sender: "c", PrevRing: ringIdentity{Epoch: 5, Rep: "c"}, HighSeq: 99}, t0); hs != 0 {
		t.Fatalf("a member of another lineage moved our sequence space to %d", hs)
	}
	b.recordJoin(ja, t0)
	b.recordJoin(&joinMsg{Sender: "c"}, t0)
	for _, step := range []time.Duration{0, interval, 2*interval - 1} {
		if f := a.propose(7, t0.Add(step)); f != nil {
			t.Fatalf("formed %+v after %v, before the alive set was stable", f, step)
		}
		if f := b.propose(9, t0.Add(3*interval)); f != nil {
			t.Fatalf("b formed %+v: it is not the representative", f)
		}
	}
	f := a.propose(7, t0.Add(2*interval))
	if f == nil || f.Ring != (ringIdentity{Epoch: 1, Rep: "a"}) || !slices.Equal(f.Members, []string{"a", "b", "c"}) || f.StartSeq != 9 {
		t.Fatalf("form = %+v, want ring 1@a of a, b, c starting at the lineage's highest seq 9", f)
	}
	if !b.acceptsForm(f) || !b.install(f, t0) || !a.install(f, t0) {
		t.Fatal("a fresh lineage's first ring did not install as a continuation")
	}
	if a.successor() != "b" || b.successor() != "c" || b.maxEpoch != 1 {
		t.Fatalf("successors %s, %s; b's epoch %d", a.successor(), b.successor(), b.maxEpoch)
	}
	if b.acceptsForm(f) || b.acceptsForm(&formMsg{Ring: ringIdentity{Epoch: 2, Rep: "a"}, Members: []string{"a", "c"}}) {
		t.Fatal("accepted the form of the ring in place, or one that leaves this member out")
	}
	if a.heardAnnounce(&announceMsg{Ring: f.Ring}) || a.heardAnnounce(&announceMsg{Ring: ringIdentity{Epoch: 1, Rep: "b"}}) {
		t.Fatal("reformed on its own beacon, or on a stale one from a member")
	}
	if !a.heardAnnounce(&announceMsg{Ring: ringIdentity{Epoch: 1, Rep: "z"}}) {
		t.Fatal("a foreign ring's beacon did not call for a merge")
	}
	if a.beaconDue(t0.Add(announceIntervals*interval-1)) || !a.beaconDue(t0.Add(announceIntervals*interval)) || b.beaconDue(t0.Add(time.Hour)) {
		t.Fatal("beacon not once per period, or not from the representative only")
	}
	// Leaving: the ring becomes the lineage on offer, and a peer not heard
	// for joinExpiryIntervals drops out of the alive set.
	a.gather(t0)
	a.recordJoin(jb, t0)
	if j := a.join(9, t0.Add(joinExpiryIntervals*interval+1)); j.PrevRing != f.Ring || !slices.Equal(j.Alive, []string{"a"}) {
		t.Fatalf("join after leaving = %+v", j)
	}
}

// TestDeliveryAlone drives the delivery part with no Processor: a gap holds
// delivery back and goes on the token's request list, the frame that fills
// it releases both in order, a request is served under the token's ring, and
// a completed rotation's GC point frees what everyone has.
func TestDeliveryAlone(t *testing.T) {
	var senders []string
	var own []uint64
	d := newDelivery("a", nil,
		func(sender string, _ int, _ time.Time) { senders = append(senders, sender) },
		func(id uint64, _ time.Time) { own = append(own, id) })
	defer d.deliveries.Close()
	defer d.views.Close()
	now := time.Unix(1_000, 0)
	ring := ringIdentity{Epoch: 1, Rep: "a"}
	frame := func(seq uint64, sender string) *dataMsg {
		return &dataMsg{Ring: ring, Seq: seq, Chunks: []chunk{{Sender: sender, MsgID: seq + 40, FragTotal: 1, Payload: []byte{byte(seq)}}}}
	}
	d.enterRing(Membership{Epoch: 1, Rep: "a", Members: []string{"a", "b"}})
	if v := <-d.deliveries.Out(); v.View == nil || v.View.Reset {
		t.Fatalf("first delivery %+v, want the continuing view", v)
	}

	d.accept(frame(2, "b"), now)
	tok := &tokenMsg{Ring: ring, Seq: 2}
	served, open := d.serve(tok, func(wireMsg) { t.Fatal("served a request nobody made") })
	d.request(tok, open, now)
	if served != 0 || d.myAru != 0 || !slices.Equal(tok.Rtr, []uint64{1}) {
		t.Fatalf("aru %d, requests %v: want delivery held at the gap and seq 1 requested", d.myAru, tok.Rtr)
	}
	d.accept(frame(1, "a"), now)
	d.accept(frame(1, "a"), now) // a duplicate of a delivered frame is dropped
	if d.myAru != 2 || !slices.Equal(senders, []string{"a", "b"}) || !slices.Equal(own, []uint64{41}) {
		t.Fatalf("aru %d, frames from %v, own %v", d.myAru, senders, own)
	}
	for want := byte(1); want <= 2; want++ {
		if m := <-d.deliveries.Out(); len(m.Payload) != 1 || m.Payload[0] != want {
			t.Fatalf("delivered %+v, want seq %d", m, want)
		}
	}

	var resent []*dataMsg
	next := ringIdentity{Epoch: 2, Rep: "a"}
	served, open = d.serve(&tokenMsg{Ring: next, Seq: 2, Rtr: []uint64{2, 9}}, func(m wireMsg) { resent = append(resent, m.(*dataMsg)) })
	if served != 1 || len(resent) != 1 || resent[0].Seq != 2 || resent[0].Ring != next || !slices.Equal(open, []uint64{9}) {
		t.Fatalf("served %d (%+v), left open %v", served, resent, open)
	}
	tok = &tokenMsg{Ring: ring, Seq: 2, AruSetter: "a", Aru: 2}
	d.aggregate(tok)
	if tok.GCSeq != 2 || d.gcLow != 2 || len(d.store) != 0 || d.nRotations.Load() != 1 {
		t.Fatalf("after a completed rotation at aru 2: GCSeq %d, gcLow %d, %d frames kept", tok.GCSeq, d.gcLow, len(d.store))
	}
}

// reassemblyProbe is a lone delivery at member a of ring {a, c}, with the
// payloads its Ordered hook sees and helpers to hand it fragments of c's
// messages and the tombstones a member makes for frames nobody can serve.
type reassemblyProbe struct {
	d         *delivery
	ring      ringIdentity
	now       time.Time
	delivered []string
}

func newReassemblyProbe(t *testing.T) *reassemblyProbe {
	p := &reassemblyProbe{ring: ringIdentity{Epoch: 1, Rep: "a"}, now: time.Unix(1_000, 0)}
	p.d = newDelivery("a", func(dv *Delivery) { p.delivered = append(p.delivered, string(dv.Payload)) },
		func(string, int, time.Time) {}, func(uint64, time.Time) {})
	t.Cleanup(func() { p.d.deliveries.Close(); p.d.views.Close() })
	p.d.enterRing(Membership{Epoch: 1, Rep: "a", Members: []string{"a", "c"}})
	return p
}

// frag delivers fragment idx of c's message id (total fragments) at seq.
func (p *reassemblyProbe) frag(seq, id uint64, idx, total uint32, payload string) {
	p.d.accept(&dataMsg{Ring: p.ring, Seq: seq, Chunks: []chunk{{Sender: "c", MsgID: id, FragIdx: idx, FragTotal: total, Payload: []byte(payload)}}}, p.now)
}

// tombstone skips seq as request does once no member can serve it.
func (p *reassemblyProbe) tombstone(seq uint64) { p.d.accept(&dataMsg{Ring: p.ring, Seq: seq}, p.now) }

// TestReassemblySpliceAcrossTombstones: fragment 0 of c's message 45, then
// tombstones for 45/1–3 and 48/0, then 48/1–3. No message is whole, so
// nothing is delivered — reassembly keyed by sender and fragment index alone
// glued 45's head to 48's tail and delivered "KLLL". The next whole message
// is delivered as sent.
func TestReassemblySpliceAcrossTombstones(t *testing.T) {
	p := newReassemblyProbe(t)
	p.frag(1, 45, 0, 4, "K")
	for seq := uint64(2); seq <= 5; seq++ {
		p.tombstone(seq)
	}
	for i := uint32(1); i <= 3; i++ {
		p.frag(5+uint64(i), 48, i, 4, "L")
	}
	p.frag(9, 51, 0, 2, "M")
	p.frag(10, 51, 1, 2, "N")
	if p.d.myAru != 10 || !slices.Equal(p.delivered, []string{"MN"}) {
		t.Fatalf("aru %d, delivered %q; want aru 10 and only \"MN\"", p.d.myAru, p.delivered)
	}
}

// TestReassemblyTombstonedLastFragment: c's two-fragment message 45 loses
// its last fragment to a tombstone, and message 46's fragment 0 is lost
// too. 46/1 is the fragment index 45's partial waits for, but not its
// message: nothing is delivered until 47 arrives whole.
func TestReassemblyTombstonedLastFragment(t *testing.T) {
	p := newReassemblyProbe(t)
	p.frag(1, 45, 0, 2, "K")
	p.tombstone(2)
	p.tombstone(3)
	p.frag(4, 46, 1, 2, "L")
	p.frag(5, 47, 0, 1, "M")
	if p.d.myAru != 5 || !slices.Equal(p.delivered, []string{"M"}) {
		t.Fatalf("aru %d, delivered %q; want aru 5 and only \"M\"", p.d.myAru, p.delivered)
	}
}
