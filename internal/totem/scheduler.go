package totem

import (
	"time"

	"eternal/internal/obs"
)

// action is what the scheduler tells the mechanism to do with the token.
type action uint8

const (
	actNone    action = iota // nothing: the work rides whatever visit comes
	actForward               // end of visit: send the token on at wire speed
	actPark                  // end of visit: keep it until parkedUntil (idle pacing)
	actRest                  // end of visit: keep it until parkedUntil; resting says why
	actServe                 // submission: sequence from the token resting here, then ask keepResting
	actRelease               // submission or nudge: send what is queued and let the kept token go
	actNudge                 // submission or delivery: broadcast a hurry
)

// tokenVisit is a token visit as the mechanism found it when the visit ended.
type tokenVisit struct {
	members  int    // ring size
	idleHops uint32 // the token's IdleHops as it leaves
	rtr      int    // retransmission requests on it as it leaves
	fgSent   int    // foreground chunks the visit sequenced
	pending  int    // chunks left in the sending queue
	bulk     int    // bulk messages waiting outside it, the visit's quota not yet let in
}

// scheduler is the policy for when the token leaves this member. It is told
// what happened — in plain values and the caller's clock — and answers with
// an action; it sends nothing, holds no token and reads no clock. A ring
// change replaces the whole value (Processor.leaveRing).
type scheduler struct {
	self              string
	tick, lossTimeout time.Duration

	// A kept token (paced or resting) is released once parkedUntil passes:
	// the pacer's backoff, or one Tick after a rest began. resting is why a
	// rest began (obs.Rest…), empty for a paced token; lastPaceTicks is the
	// backoff of the most recent forward (0 = wire speed), for the profiler.
	parkedUntil   time.Time
	resting       string
	lastPaceTicks int

	// Reply holds (mayRest). ownOwed counts own deliveries marked ReplyOwed
	// since the arriving visit began to send; owed is how many that visit
	// sequenced (at owedAt) less the urgent replies enqueued since — what a
	// hold waits for. rotation is the running median of how long the token
	// stays away from this member: what a hold saves the reply and what the
	// peers' holds cost this member, hence the most its own may cost them.
	// replyDelay is how long after owedAt the last owed reply was enqueued
	// (replyEnqueued; a hold that timed out records one past its deadline):
	// what the next hold is expected to cost (holdPays).
	ownOwed    int
	owed       int
	owedAt     time.Time
	rotation   time.Duration
	replyDelay time.Duration

	// Pacing and nudging (paceTicks, nudge). lastActivityAt is the last time
	// this member did foreground protocol work (sent non-background chunks,
	// served or requested retransmissions). hurried: a hurry has arrived or
	// been sent since this member's last forward. canNudge is the one nudge
	// each token departure buys, spent only while wantToken — urgent or bulk
	// work was enqueued since the token was last here — and leftIdle says
	// the token left here with IdleHops > 0. soleSender is the member whose
	// data frames were the last delivered here and soleSince the first of
	// its unbroken run — every member sees every data frame, so "I have
	// been the only sender for idleGrace" is local knowledge.
	lastActivityAt time.Time
	hurried        bool
	canNudge       bool
	leftIdle       bool
	wantToken      bool
	soleSender     string
	soleSince      time.Time
}

// newScheduler: no token kept, nothing owed, no reply yet late, the rotation
// estimate at its cap.
func newScheduler(self string, tick, lossTimeout time.Duration, now time.Time) scheduler {
	return scheduler{self: self, tick: tick, lossTimeout: lossTimeout, rotation: tick, lastActivityAt: now}
}

// idleGraceTicks×Tick is the ordering layer's one "has it been like this
// for a while" threshold. Idle pacing: the token keeps rotating at wire
// speed this long after a member's last foreground activity before that
// member backs its hops off. Resting: a member keeps the token once it has
// been the ring's only data sender for this long (see mayRest), and a peer
// nudges a token it believes is resting by the same measure.
const idleGraceTicks = 2

func (s *scheduler) idleGrace() time.Duration { return idleGraceTicks * s.tick }

// maxPaceTicks caps the idle pacer's exponential backoff: a long-idle
// holder parks the token for up to this many ticks per hop (further
// clamped so a paced rotation stays within TokenLossTimeout/4).
const maxPaceTicks = 4

// idleHopsCap bounds the token's idle-hop counter so it cannot wrap.
const idleHopsCap = 1 << 20

// tokenReturned takes one sample of the token's absence (the caller leaves
// out those its resend timer cut short): rotation steps an eighth towards
// it, so one stalled rotation barely moves it.
func (s *scheduler) tokenReturned(away time.Duration) {
	step := max(s.rotation/8, time.Microsecond)
	if away < s.rotation {
		step = -step
	}
	s.rotation = min(s.rotation+step, s.tick)
}

// beginSending opens the sending part of a visit: whatever was waiting for
// the token has it now, and replies owed are counted from here.
func (s *scheduler) beginSending() { s.wantToken, s.ownOwed = false, 0 }

// sent closes the sending part and returns the IdleHops the token goes on
// with. The visit's own requests are what a hold may wait for; requests
// sequenced later, from a kept token, never extend it. IdleHops counts
// consecutive hops on which no holder did foreground work (busy: chunks
// sent, retransmissions served or requested) — the ring-wide idleness
// signal. Background chunks ride the token without resetting it, so a
// quiescent ring stays paced across audit epochs.
func (s *scheduler) sent(idleHops uint32, busy bool, now time.Time) uint32 {
	s.owed, s.owedAt = s.ownOwed, now
	if busy {
		s.lastActivityAt = now
		return 0
	}
	return min(idleHops+1, idleHopsCap)
}

// active notes foreground chunks sequenced from a kept token.
func (s *scheduler) active(now time.Time) { s.lastActivityAt = now }

// endVisit decides how a token visit ends: forwarded at wire speed, paced
// (the whole ring is idle), or resting (this member is the only one with
// anything to say). A rest's deadline is set once, here, so aru and garbage
// collection, background and lazy traffic and the peers' token-loss clocks
// all still advance once per Tick. A single-member ring always paces its
// self-rotation (wire speed would be a hot loop).
func (s *scheduler) endVisit(v tokenVisit, now time.Time) action {
	s.lastPaceTicks = 0
	ticks := s.paceTicks(v, now)
	if v.members == 1 {
		ticks = max(1, ticks)
	} else if why := s.mayRest(v, now); why != "" {
		s.parkedUntil, s.resting = now.Add(s.tick), why
		return actRest
	}
	if ticks == 0 {
		return actForward
	}
	s.parkedUntil, s.lastPaceTicks = now.Add(time.Duration(ticks-1)*s.tick), ticks
	return actPark
}

// mayRest decides whether a visit ends with the token staying here, and
// names why (empty: it moves on). Either way this member sent foreground
// data on the visit and has nothing left over, nobody has nudged since its
// last forward and no retransmission is requested. Then it stays on either
// piece of evidence that its next message is the ring's next message: it
// has been the only data sender for idleGrace and no bulk waits (a rest
// with chunks waiting would move one quota per Tick), or the visit
// sequenced a request whose urgent reply this member itself submits
// (Delivery.ReplyOwed), which would otherwise wait a whole rotation for the
// token just let go. Such a hold ends when the last owed reply is out
// (keepResting), bulk or no bulk: the visit's quota waits behind it and
// goes out ahead of the token (Processor.releaseParked).
func (s *scheduler) mayRest(v tokenVisit, now time.Time) string {
	switch {
	case v.fgSent == 0 || s.hurried || v.pending > 0 || v.rtr > 0:
		return ""
	case v.bulk == 0 && s.soleSenderHere(now):
		return obs.RestSoleSender
	case s.owed > 0 && s.holdPays(v.bulk):
		return obs.RestReplyOwed
	}
	return ""
}

// holdPays: the last owed reply came no later after its request than what a
// hold now would save this one, so holding is expected to cost the peers
// less than it saves here. With no bulk waiting that is the token's usual
// absence (rotation). With a quota about to go out ahead of the token it is
// the hold's own one-Tick deadline: the burst delays every peer, and the
// reply if it is not waited for, by far more than a prompt servant does. A
// servant slower than either is held for once, not once per request.
func (s *scheduler) holdPays(bulk int) bool {
	if bulk > 0 {
		return s.replyDelay <= s.tick
	}
	return s.replyDelay <= s.rotation
}

// soleSenderHere: this member has been the only data sender for idleGrace.
func (s *scheduler) soleSenderHere(now time.Time) bool {
	return s.soleSender == s.self && now.Sub(s.soleSince) >= s.idleGrace()
}

// restingElsewhere: another member has, and so may be keeping the token.
func (s *scheduler) restingElsewhere(now time.Time) bool {
	return s.soleSender != "" && s.soleSender != s.self && now.Sub(s.soleSince) >= s.idleGrace()
}

// paceTicks decides whether this hop should pace the token and for how
// many ticks; zero means forward at wire speed. Pacing starts after a
// fully idle rotation (IdleHops covers every member): one tick per hop
// at first, and once idleGrace has also passed since this member's last
// foreground activity the backoff doubles with each further idle
// rotation up to maxPaceTicks, clamped so a fully paced rotation stays
// within a quarter of the token-loss timeout. An idle-but-recent ring
// therefore never spins at wire speed — a hurry nudge (or a local
// enqueue) is what cancels pacing when latency matters.
func (s *scheduler) paceTicks(v tokenVisit, now time.Time) int {
	if int(v.idleHops) < v.members {
		return 0
	}
	if s.hurried || v.bulk > 0 {
		return 0 // a nudged token, or one bulk is waiting for, crosses at wire speed
	}
	if now.Sub(s.lastActivityAt) < s.idleGrace() {
		return 1
	}
	ticks := 1
	for r := int(v.idleHops)/v.members - 1; r > 0 && ticks < maxPaceTicks; r-- {
		ticks <<= 1
	}
	if budget := int(s.lossTimeout / 4 / (time.Duration(v.members) * s.tick)); budget < ticks {
		ticks = max(budget, 1)
	}
	return ticks
}

// departed: the token has left for the successor. The nudge that hurried
// it is spent, and this departure buys one more.
func (s *scheduler) departed(idleHops uint32) {
	s.hurried, s.canNudge, s.leftIdle = false, true, idleHops > 0
}

// submitted gets the token to a freshly enqueued submission of class c;
// kept says a paced or resting token is here. Urgent work is sequenced from
// a token resting here, which stays (the rest's deadline stands, so
// housekeeping still gets its rotation once per Tick however busy this
// member is); urgent or bulk work wakes a paced token, ends a rest whose
// deadline has passed, and may nudge a token kept elsewhere. Lazy and
// background traffic ride the next (possibly paced) visit, so neither
// insurance replies nor audit marks keep a quiescent ring spinning.
func (s *scheduler) submitted(c class, kept bool, now time.Time) action {
	switch {
	case c == classLazy || c == classBackground:
		return actNone
	case kept && s.resting != "" && c == classUrgent && now.Before(s.parkedUntil):
		return actServe
	case kept:
		return actRelease
	}
	s.wantToken = true
	return s.nudge(now)
}

// keepResting is asked after an actServe with what is left in the sending
// queue and the bulk waiting outside it: the token stays unless one visit's
// window was full, and a reply hold lasts while a reply is owed, or — no
// bulk waiting — on as a sole sender's rest.
func (s *scheduler) keepResting(pending, bulk int, now time.Time) bool {
	return pending == 0 && (s.owed > 0 || bulk == 0 && (s.resting == obs.RestSoleSender || s.soleSenderHere(now)))
}

// replyEnqueued discounts one urgent reply from what a hold waits for; the
// last one's delay after its requests is what holdPays goes by.
func (s *scheduler) replyEnqueued(now time.Time) {
	if s.owed > 0 {
		if s.owed--; s.owed == 0 {
			s.replyDelay = now.Sub(s.owedAt)
		}
	}
}

// nudge answers actNudge if work is waiting for the token here and the
// token may be kept somewhere. One nudge per token departure is all that
// can help — it releases the token wherever it is parked or resting and
// un-paces every hop back to this member. A token that left with
// IdleHops == 0 cannot be parked before it returns (the member that
// completes the idle rotation is this one), and it rests only at a member
// that has been the ring's only sender for idleGrace; when neither can be
// the case the token is on its way and a nudge would be one more frame in
// front of it. submitted asks at enqueue; delivered asks again, as the
// would-be nudger may learn that another member is the sole sender only
// from frames that arrive after it enqueued.
func (s *scheduler) nudge(now time.Time) action {
	if !s.wantToken || !s.canNudge || !(s.leftIdle || s.restingElsewhere(now)) {
		return actNone
	}
	s.canNudge, s.hurried = false, true
	return actNudge
}

// delivered is told of every data frame delivered here: its sender and how
// many of its messages were marked ReplyOwed. The sole-sender clock: a
// frame from anyone but the current sole sender restarts it. A frame that
// continues a peer's run is when a member waiting for the token may find
// out that the peer has been alone long enough to be resting on it.
func (s *scheduler) delivered(sender string, owed int, now time.Time) action {
	s.ownOwed += owed
	if sender != s.soleSender {
		s.soleSender, s.soleSince = sender, now
		return actNone
	}
	return s.nudge(now)
}

// nudged reacts to a peer's hurry: a token kept here is released at once,
// and the next forward neither paces nor rests, so the token crosses the
// ring at wire speed until the nudging enqueuer is served. The flag lasts
// until that forward even if the token is still on its way here — it must
// not rest on arrival.
func (s *scheduler) nudged(kept bool) action {
	s.hurried = true
	if kept {
		return actRelease
	}
	return actNone
}

// due: the kept token's deadline has passed; release it.
func (s *scheduler) due(now time.Time) bool { return !now.Before(s.parkedUntil) }

// released ends a pace or a rest, and reports whether it was a reply hold
// that met its deadline with replies still owed — a delay no hold pays for.
func (s *scheduler) released(now time.Time) (timedOut bool) {
	timedOut = s.resting == obs.RestReplyOwed && s.owed > 0 && !now.Before(s.parkedUntil)
	if timedOut {
		s.replyDelay = s.tick + 1
	}
	s.resting = ""
	return timedOut
}
