package totem

import (
	"time"

	"eternal/internal/obs"
)

// The mechanism of a token visit: the queues of work waiting for the token,
// what a visit does with them, and carrying out what the scheduler decides.

// class says how badly a submission wants the token.
type class uint8

const (
	// classUrgent wakes a token parked here and may nudge one held
	// elsewhere: requests, replies their client is waiting for, membership
	// and recovery control.
	classUrgent     class = iota
	classBackground       // see MulticastBackground
	classLazy             // see MulticastLazy
	classBulk             // see MulticastBulk
)

// submission is one application message queued for the run goroutine:
// its pre-fragmented chunks, its class, the span-tracing metadata and the
// sender's way to take it back until a token visit sequences it.
type submission struct {
	chunks   [][]byte
	trace    uint64
	reply    bool
	class    class
	withdraw func() bool
}

// sendMeta is what the processor remembers about a locally originated
// message between submission and self-delivery: when it was submitted, and
// the submission less its chunks.
type sendMeta struct {
	at time.Time
	submission
}

// heldMsg is one whole message in a holding queue (lazy or bulk), not yet
// cut into the sending queue's chunks.
type heldMsg struct {
	id     uint64
	chunks [][]byte
}

func (p *Processor) enqueue(sub submission, now time.Time) {
	p.msgID++
	m := heldMsg{id: p.msgID, chunks: sub.chunks}
	sub.chunks = nil
	p.sendTimes[m.id] = sendMeta{at: now, submission: sub}
	if sub.reply && sub.class == classUrgent {
		p.sched.replyEnqueued(now)
	}
	if sub.trace != 0 {
		if sub.reply {
			p.cfg.Spans.MarkOpen(sub.trace, obs.SpanReplyEnqueued)
		} else {
			p.cfg.Spans.Mark(sub.trace, obs.SpanEnqueued)
		}
	}
	switch sub.class {
	case classLazy:
		p.lazy.Push(m)
	case classBulk:
		p.bulk.Push(m)
	default:
		p.admit(m)
	}
}

// admit cuts one whole message into the sending queue. Its chunks go in
// back to back, which is what keeps a sender's multi-fragment messages
// from interleaving (receivers reassemble per sender) and what lets
// dropWithdrawn treat the FragTotal chunks from a first fragment as the
// message.
func (p *Processor) admit(m heldMsg) {
	total := uint32(len(m.chunks))
	for i, c := range m.chunks {
		p.pending.Push(chunk{Sender: p.addr, MsgID: m.id, FragIdx: uint32(i), FragTotal: total, Payload: c})
	}
	p.mPending.Set(int64(p.pending.Len()))
}

// promoteLazy is a token visit's intake from the lazy queue, before the
// visit sends, so what it admits queues behind the urgent work already
// there. Lazy messages leave in submission order once a Tick old: withdrawn
// ones are dropped, the rest admitted (a younger one keeps the ones behind
// it waiting; they are all younger still).
func (p *Processor) promoteLazy(now time.Time) {
	for {
		m, ok := p.lazy.Peek()
		if !ok {
			break
		}
		meta := p.sendTimes[m.id]
		if now.Sub(meta.at) < p.cfg.Tick {
			break
		}
		p.lazy.Pop()
		if meta.withdraw != nil && meta.withdraw() {
			delete(p.sendTimes, m.id)
			p.nWithdrawn.Add(1)
			p.nLazyDrop.Add(1)
			continue
		}
		p.nLazySent.Add(1)
		p.admit(m)
	}
}

// promoteBulk is a token visit's intake from the bulk queue, once per visit
// and last: after the visit's urgent work is out and, when the token was
// held for the replies that work owes, after those too (forwardToken,
// releaseParked). Bulk messages are admitted up to the visit's quota, and
// only while the sending queue is shorter than one visit can drain, so a
// quota larger than the ring's flow-control window cannot build a backlog
// in front of later urgent messages.
func (p *Processor) promoteBulk() {
	for n := 0; p.bulk.Len() > 0 && p.pending.Len() < p.cfg.window && n < bulkPerVisit; n++ {
		m, _ := p.bulk.Pop()
		p.nBulkProm.Add(1)
		p.admit(m)
	}
	if p.bulk.Len() > 0 {
		p.nBulkStalls.Add(1)
	}
}

// kick does what the scheduler says a fresh submission of class c calls for.
func (p *Processor) kick(c class, now time.Time) {
	if p.state != stateOperational {
		return
	}
	act := p.sched.submitted(c, p.parkedToken != nil, now)
	if act == actServe {
		if _, fgSent := p.sendPending(p.parkedToken, now, p.cfg.window); fgSent > 0 {
			p.sched.active(now)
		}
		if p.sched.keepResting(p.pending.Len(), p.bulk.Len(), now) {
			return
		}
		act = actRelease
	}
	p.act(act, now)
}

// act carries out an action that needs no token visit behind it.
func (p *Processor) act(a action, now time.Time) {
	switch a {
	case actRelease:
		p.releaseParked(now)
	case actNudge:
		p.nHurrySent.Add(1)
		p.bcastMsg(&hurryMsg{Ring: p.ring, Origin: p.addr})
	}
}

func (p *Processor) handleHurry(m *hurryMsg, now time.Time) {
	if p.state != stateOperational || m.Ring != p.ring || m.Origin == p.addr {
		return
	}
	p.nHurryRecv.Add(1)
	p.act(p.sched.nudged(p.parkedToken != nil), now)
}

func (p *Processor) handleData(m *dataMsg, now time.Time) {
	// A frame of another ring is stale (in flight across a reformation) or
	// foreign. Ignore it either way: lineage peers recover real gaps by
	// retransmission, and foreign rings are found through the announce
	// beacon, which carries enough identity to tell stale from foreign.
	if p.state == stateOperational && m.Ring == p.ring {
		p.delivery.accept(m, now)
	}
}

// frameDelivered and ownDelivered are delivery's two upcalls: every data
// frame's sender goes to the scheduler (which may answer with a nudge), and
// an own message delivered whole closes its sendMeta with its latency.
func (p *Processor) frameDelivered(sender string, owed int, now time.Time) {
	p.act(p.sched.delivered(sender, owed, now), now)
}

func (p *Processor) ownDelivered(msgID uint64, now time.Time) {
	if meta, ok := p.sendTimes[msgID]; ok {
		delete(p.sendTimes, msgID)
		p.mLatency.ObserveDuration(now.Sub(meta.at))
	}
}

func (p *Processor) handleToken(tok *tokenMsg, now time.Time) {
	if p.state != stateOperational || tok.Ring != p.ring || tok.Round <= p.round {
		return // another ring's, or a duplicate from token retransmission
	}
	if p.lastSentToken != nil && p.tokenResends == 0 {
		p.sched.tokenReturned(now.Sub(p.lastSentAt))
	}
	prevVisit := p.lastTokenAt
	p.round, p.lastTokenAt, p.lastSentToken, p.tokenResends = tok.Round, now, nil, 0

	// 1. Serve retransmission requests we can satisfy; 2. request what we
	// are missing. (The two clock reads in this function are the rotation
	// profiler timing its own visit; protocol time is now.)
	served, open := p.delivery.serve(tok, p.bcastMsg)
	rtrDone := time.Now()
	p.delivery.request(tok, open, now)

	// 3. Let aged lazy messages in, then multicast pending chunks. Bulk
	// waiting for its quota is foreground work not done yet.
	p.sched.beginSending()
	p.promoteLazy(now)
	pendingBefore := p.pending.Len()
	sent, fgSent := p.sendPending(tok, now, p.cfg.window)
	tok.IdleHops = p.sched.sent(tok.IdleHops, served > 0 || fgSent > 0 || len(tok.Rtr) > 0 || p.bulk.Len() > 0, now)

	// 4. Aggregate aru; 5. garbage-collect messages everyone has.
	p.delivery.aggregate(tok)

	// 6. Keep the token, or send the visit's bulk quota and the token behind
	// it; then profile the visit (the forward decides the pacing state the
	// sample records).
	idleHops := tok.IdleHops
	sent += p.forwardToken(tok, now, fgSent, p.cfg.window-sent)
	end := time.Now()
	sample := obs.TokenRotation{
		At:            now,
		Round:         p.round,
		HoldUs:        float64(end.Sub(now).Nanoseconds()) / 1e3,
		RetransUs:     float64(rtrDone.Sub(now).Nanoseconds()) / 1e3,
		SendUs:        float64(end.Sub(rtrDone).Nanoseconds()) / 1e3,
		RetransServed: served,
		ChunksSent:    sent,
		PendingBefore: pendingBefore,
		PendingAfter:  p.pending.Len(),
		IdleHops:      idleHops,
		Paced:         p.sched.lastPaceTicks > 0,
		PaceTicks:     p.sched.lastPaceTicks,
		Resting:       p.sched.resting,
		BulkWaiting:   p.bulk.Len(),
	}
	if !prevVisit.IsZero() {
		sample.IntervalUs = float64(now.Sub(prevVisit).Nanoseconds()) / 1e3
		p.mTokenInterval.ObserveDuration(now.Sub(prevVisit))
	}
	p.mTokenHold.ObserveDuration(end.Sub(now))
	p.rotations.Record(sample)
}

// Rotations returns up to max most recent profiler samples, oldest first.
func (p *Processor) Rotations(max int) []obs.TokenRotation {
	return p.rotations.Last(max)
}

// sendPending multicasts queued chunks, each frame under the token's next
// sequence number, bounded by limit chunks (the window, or what is left of
// it when a visit sends twice). It returns how many
// chunks were sent and how many of those were foreground (non-background)
// — the count that feeds the idle pacer. Consecutive sub-MTU chunks,
// possibly of different application messages, share one frame and one
// sequence number; the conservative wireCost bound keeps each frame within
// the MTU without a trial encode. Messages their sender withdrew are
// dropped here, whole, instead of being sequenced (dropWithdrawn).
func (p *Processor) sendPending(tok *tokenMsg, now time.Time, limit int) (sent, fgSent int) {
	mtu := p.tr.MTU()
	queued := p.pending.Len()
	for sent < limit {
		p.dropWithdrawn()
		first, ok := p.pending.Pop()
		if !ok {
			break
		}
		sent++
		frame := &dataMsg{Chunks: []chunk{first}}
		size := packedFrameOverhead + first.wireCost()
		for sent < limit {
			p.dropWithdrawn()
			next, ok := p.pending.Peek()
			if !ok || size+next.wireCost() > mtu {
				break
			}
			p.pending.Pop()
			sent++
			frame.Chunks = append(frame.Chunks, next)
			size += next.wireCost()
		}
		frame.Ring = p.ring
		tok.Seq++
		frame.Seq = tok.Seq
		p.delivery.hold(frame)
		p.bcastMsg(frame)
		p.nChunks.Add(uint64(len(frame.Chunks)))
		p.nDataFrames.Add(1)
		if len(frame.Chunks) > 1 {
			p.nPacked.Add(uint64(len(frame.Chunks)))
		}
		for i := range frame.Chunks {
			c := &frame.Chunks[i]
			meta, ok := p.sendTimes[c.MsgID]
			if !ok || meta.class != classBackground {
				fgSent++
			}
			if p.cfg.Spans == nil || c.FragIdx != c.FragTotal-1 {
				continue // the message is on the wire once its last fragment is
			}
			if ok && meta.trace != 0 {
				if meta.reply {
					p.cfg.Spans.MarkOpen(meta.trace, obs.SpanReplyTransmitted)
				} else {
					p.cfg.Spans.Mark(meta.trace, obs.SpanTransmitted)
				}
			}
		}
	}
	if p.pending.Len() != queued {
		p.mPending.Set(int64(p.pending.Len()))
	}
	if sent > 0 {
		p.delivery.advanceAru(now)
	}
	return sent, fgSent
}

// dropWithdrawn discards messages at the head of the pending queue whose
// sender withdrew them (MulticastWithdrawable). The question is asked only
// at a message's first chunk, so a message is dropped whole or sent whole:
// once chunk 0 has a sequence number the rest follow, however many token
// visits that takes. enqueue pushes a message's chunks back to back, so
// the FragTotal chunks from the head are exactly the message.
func (p *Processor) dropWithdrawn() {
	for {
		head, ok := p.pending.Peek()
		if !ok || head.FragIdx != 0 {
			return
		}
		meta, ok := p.sendTimes[head.MsgID]
		if !ok || meta.withdraw == nil || !meta.withdraw() {
			return
		}
		for i := uint32(0); i < head.FragTotal; i++ {
			p.pending.Pop()
		}
		delete(p.sendTimes, head.MsgID)
		p.nWithdrawn.Add(1)
	}
}

// forwardToken ends a token visit on which fgSent foreground chunks were
// sent and room is left in its window, the way the scheduler says: the
// token stays here paced or resting, or leaves behind the visit's bulk
// quota. A hold for replies owed leaves the quota in its lane (the only
// way a token stays with bulk waiting): the replies go out first, and
// releaseParked sends the quota when the hold ends. It returns the chunks
// the quota put on the wire. A single-member ring has nobody to hold the
// quota back for, and drains everything pending.
func (p *Processor) forwardToken(tok *tokenMsg, now time.Time, fgSent, room int) (sent int) {
	tok.Round++
	succ := p.membership.successor()
	if succ == p.addr {
		p.promoteBulk()
		for p.pending.Len() > 0 {
			n, _ := p.sendPending(tok, now, p.cfg.window)
			sent += n
		}
	}
	v := tokenVisit{members: len(p.members), idleHops: tok.IdleHops, rtr: len(tok.Rtr),
		fgSent: fgSent, pending: p.pending.Len(), bulk: p.bulk.Len()}
	switch p.sched.endVisit(v, now) {
	case actPark:
		p.parkedToken = tok
		p.nPacedHops.Add(1)
	case actRest:
		p.parkedToken, p.quotaHeld = tok, v.bulk > 0
		if p.sched.resting == obs.RestReplyOwed {
			p.nHolds.Add(1)
		} else {
			p.nRests.Add(1)
		}
	default:
		if v.bulk > 0 {
			p.promoteBulk()
			n, _ := p.sendPending(tok, now, room)
			sent += n
		}
		p.transmitToken(tok, succ, now)
	}
	return sent
}

func (p *Processor) transmitToken(tok *tokenMsg, succ string, now time.Time) {
	p.sched.departed(tok.IdleHops)
	p.lastSentToken, p.lastSentAt, p.tokenResends = tok, now, 0
	p.sendMsg(succ, tok)
}

// releaseParked resumes a paced or resting token: a bulk quota that waited
// behind a reply hold is let in, whatever is in the sending queue — replies
// and requests enqueued meanwhile, then that quota — is sent, and the token
// moves on (a single-member ring re-handles it instead). Otherwise held
// messages stay where they are: they enter once per token visit, which is
// what makes the bulk quota "per visit". Bulk still waiting here is
// foreground work, so the token leaves marked busy and no member paces it
// on its way round and back.
func (p *Processor) releaseParked(now time.Time) {
	tok := p.parkedToken
	p.parkedToken = nil
	if p.sched.released(now) {
		p.nHoldTimeo.Add(1)
	}
	if p.state != stateOperational || tok.Ring != p.ring {
		return // ring changed while parked; the new ring mints a new token
	}
	if p.quotaHeld {
		p.quotaHeld = false
		p.promoteBulk()
	}
	if p.bulk.Len() > 0 {
		tok.IdleHops = 0
	}
	if p.pending.Len() > 0 {
		if _, fgSent := p.sendPending(tok, now, p.cfg.window); fgSent > 0 {
			tok.IdleHops = 0
			p.sched.active(now)
		}
	}
	succ := p.membership.successor()
	if succ == p.addr {
		p.handleToken(tok, now)
		return
	}
	p.transmitToken(tok, succ, now)
}
