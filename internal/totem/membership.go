package totem

import (
	"slices"
	"strings"
	"time"

	"eternal/internal/obs"
)

// Gather-phase peers not heard from for joinExpiryIntervals×JoinInterval
// are dropped; the representative beacons its ring every
// announceIntervals×JoinInterval so foreign rings find each other after a
// partition heals.
const (
	joinExpiryIntervals = 5
	announceIntervals   = 8
)

const (
	stateGather = iota
	stateOperational
)

type joinRecord struct {
	msg    *joinMsg
	seenAt time.Time
}

// membership is the membership part of a member: which ring it is on, who
// it hears while gathering, and when they are complete or stable enough to
// form the next ring. It builds the messages; the mechanism sends them, and
// hands in the one thing a join or a form needs from delivery, the highest
// sequence number known.
type membership struct {
	self                    string
	joinInterval, stableFor time.Duration
	// nodes is the configured member set, sorted; nil when unknown.
	nodes []string

	state    int
	ring     ringIdentity
	prevRing ringIdentity
	members  []string
	maxEpoch uint64

	joinInfo       map[string]joinRecord
	stableSince    time.Time
	aliveKey       string
	lastJoinSent   time.Time
	lastAnnounceAt time.Time
}

// newMembership is the membership part of a fresh member named self.
func newMembership(self string, cfg Config) *membership {
	nodes := slices.Clone(cfg.Nodes)
	slices.Sort(nodes)
	return &membership{self: self, joinInterval: cfg.JoinInterval, stableFor: cfg.StableFor, nodes: slices.Compact(nodes)}
}

// gather enters the gather phase: the ring left behind becomes the lineage
// this member offers to continue, and everyone has to be heard afresh.
func (m *membership) gather(now time.Time) {
	if m.state == stateOperational {
		m.prevRing = m.ring
	}
	m.state = stateGather
	m.joinInfo = make(map[string]joinRecord)
	m.stableSince = now
	m.aliveKey = ""
}

func (m *membership) learnEpoch(epoch uint64) { m.maxEpoch = max(m.maxEpoch, epoch) }

func (m *membership) joinDue(now time.Time) bool { return now.Sub(m.lastJoinSent) >= m.joinInterval }

// join builds this member's join, to be broadcast now.
func (m *membership) join(highSeq uint64, now time.Time) *joinMsg {
	m.lastJoinSent = now
	return &joinMsg{Sender: m.self, Alive: m.aliveSet(now), PrevRing: m.prevRing, HighSeq: highSeq, MaxEpoch: m.maxEpoch}
}

func (m *membership) aliveSet(now time.Time) []string {
	alive := []string{m.self}
	for a, rec := range m.joinInfo {
		if m.fresh(rec, now) && a != m.self {
			alive = append(alive, a)
		}
	}
	slices.Sort(alive)
	return alive
}

// fresh reports whether a peer's last join still counts it alive.
func (m *membership) fresh(rec joinRecord, now time.Time) bool {
	return now.Sub(rec.seenAt) <= joinExpiryIntervals*m.joinInterval
}

// alive reports whether a peer is in the alive set.
func (m *membership) alive(peer string, now time.Time) bool {
	rec, ok := m.joinInfo[peer]
	return ok && m.fresh(rec, now)
}

// recordJoin notes a gather-phase peer and returns the highest sequence
// number it knows of in this member's lineage (0 if it is of another).
func (m *membership) recordJoin(j *joinMsg, now time.Time) (highSeq uint64) {
	m.joinInfo[j.Sender] = joinRecord{msg: j, seenAt: now}
	if j.PrevRing == m.prevRing {
		return j.HighSeq
	}
	return 0
}

// acceptsForm reports whether a form installs a ring here: it names this
// member and is newer than the ring in place (which the representative's
// own broadcast, echoed back, is not).
func (m *membership) acceptsForm(f *formMsg) bool {
	m.learnEpoch(f.Ring.Epoch)
	if !slices.Contains(f.Members, m.self) {
		return false
	}
	return m.state != stateOperational || f.Ring.Epoch > m.ring.Epoch
}

// install moves onto the ring f forms and reports whether this member
// continues the sequence space: its previous ring is the form's lineage,
// or the lineage is brand new (everyone fresh, zero lineage), which
// continues trivially from sequence 0.
func (m *membership) install(f *formMsg, now time.Time) (continued bool) {
	continued = m.prevRing == f.Lineage
	m.state = stateOperational
	m.ring, m.prevRing = f.Ring, f.Ring
	m.members = slices.Clone(f.Members)
	slices.Sort(m.members)
	m.lastAnnounceAt = now
	m.learnEpoch(f.Ring.Epoch)
	return continued
}

// propose is the gather phase's tick: once the alive set has stayed the
// same for stableFor, its smallest address — the representative — forms
// the next ring (nil otherwise).
func (m *membership) propose(seqHigh uint64, now time.Time) *formMsg {
	alive := m.aliveSet(now)
	if key := strings.Join(alive, ","); key != m.aliveKey {
		m.aliveKey, m.stableSince = key, now
		return nil
	}
	if now.Sub(m.stableSince) < m.stableFor || alive[0] != m.self {
		return nil
	}
	return m.form(alive, seqHigh)
}

// complete is the gather phase's answer to a join: the representative
// forms the next ring at once (nil otherwise) when the alive set holds
// every configured node and each peer in it was heard by a current join,
// one that knows the epoch of the ring this member last installed. A join
// still in flight from an earlier gather may carry a HighSeq below what
// its sender delivered since; a current one is final, because a gathering
// member ignores data. Without a configured set, only propose forms.
//
// It runs at every join a gathering member hears, so it decides without
// building the alive set; a member that is not the representative usually
// knows at the first configured node.
func (m *membership) complete(seqHigh uint64, now time.Time) *formMsg {
	if len(m.nodes) == 0 || m.nodes[0] < m.self && m.alive(m.nodes[0], now) {
		return nil
	}
	for _, n := range m.nodes {
		if n != m.self && !m.alive(n, now) {
			return nil
		}
	}
	for a, rec := range m.joinInfo {
		if m.fresh(rec, now) && (a < m.self || rec.msg.MaxEpoch < m.ring.Epoch) {
			return nil
		}
	}
	return m.form(m.aliveSet(now), seqHigh)
}

// form builds the next ring of alive, continuing this member's previous
// ring from the highest sequence number known among that lineage's members
// (seqHigh is the representative's own).
func (m *membership) form(alive []string, seqHigh uint64) *formMsg {
	for _, a := range alive {
		if rec, ok := m.joinInfo[a]; ok && rec.msg.PrevRing == m.prevRing && rec.msg.HighSeq > seqHigh {
			seqHigh = rec.msg.HighSeq
		}
	}
	m.maxEpoch++
	return &formMsg{Ring: ringIdentity{Epoch: m.maxEpoch, Rep: m.self}, Members: alive, Lineage: m.prevRing, StartSeq: seqHigh}
}

// heardAnnounce reacts to a ring beacon: a beacon naming a ring this member
// is not part of means a foreign ring shares the segment (healed
// partition), so it reforms to merge — unless the beacon is recognizably
// stale (its representative is one of our members and its epoch is not
// newer). Gatherers learn the current epoch from beacons so their joins are
// not dismissed as stale.
func (m *membership) heardAnnounce(a *announceMsg) (reform bool) {
	m.learnEpoch(a.Ring.Epoch)
	if m.state != stateOperational || a.Ring == m.ring {
		return false
	}
	return !(slices.Contains(m.members, a.Ring.Rep) && a.Ring.Epoch <= m.ring.Epoch)
}

// beaconDue reports the representative's beacon due, once per period.
func (m *membership) beaconDue(now time.Time) bool {
	if m.ring.Rep != m.self || now.Sub(m.lastAnnounceAt) < announceIntervals*m.joinInterval {
		return false
	}
	m.lastAnnounceAt = now
	return true
}

func (m *membership) successor() string {
	i := slices.Index(m.members, m.self)
	if i < 0 {
		return m.self
	}
	return m.members[(i+1)%len(m.members)]
}

// --- how the Processor drives it ---

// enterGather moves the processor into the membership gather phase.
// reason names the trigger for the flight recorder ("" for the silent
// initial gather at startup).
func (p *Processor) enterGather(now time.Time, reason string) {
	if reason != "" && p.cfg.Recorder != nil {
		typ := obs.EventReform
		if reason == "token-loss" {
			typ = obs.EventTokenLoss
		}
		p.cfg.Recorder.Record(obs.Event{Type: typ, Seq: p.myAru, Detail: reason})
	}
	p.membership.gather(now)
	p.leaveRing(now)
	p.sendJoin(now)
}

// leaveRing drops what belonged to the ring a member is leaving, for the
// gather phase or the next ring: the token it kept or was resending, and all
// the scheduler had learnt, in one assignment. None of it should survive:
// replies owed answer the old ring's requests, a late reply was late by its
// rotation, and the next data frame restarts the sole-sender clock.
func (p *Processor) leaveRing(now time.Time) {
	p.lastSentToken, p.parkedToken, p.quotaHeld = nil, nil, false
	p.sched = newScheduler(p.addr, p.cfg.Tick, p.cfg.TokenLossTimeout, now)
}

func (p *Processor) sendJoin(now time.Time) { p.bcastMsg(p.membership.join(p.seqHigh, now)) }

func (p *Processor) handleJoin(j *joinMsg, now time.Time) {
	p.membership.learnEpoch(j.MaxEpoch)
	switch {
	case j.Sender == p.addr:
		// Our own, echoed: it completes a configured set of one.
	case p.state == stateOperational && j.MaxEpoch < p.ring.Epoch:
		// A stale join, sent before our ring formed (typically one in
		// flight from the gather that produced this very ring). Do not
		// reform; instead tell the sender which ring is current so a
		// genuine joiner can re-join with a fresh epoch.
		p.sendMsg(j.Sender, &announceMsg{Ring: p.ring})
		return
	case p.state == stateOperational:
		// Someone with current knowledge is rejoining or merging: reform.
		p.enterGather(now, "peer-join")
		fallthrough
	default:
		// A lineage peer may know of more messages than we do.
		p.seqHigh = max(p.seqHigh, p.membership.recordJoin(j, now))
	}
	if p.state == stateGather {
		if f := p.membership.complete(p.seqHigh, now); f != nil {
			p.formRing(f, now)
		}
	}
}

// formRing announces the ring this member forms as its representative,
// and installs it.
func (p *Processor) formRing(f *formMsg, now time.Time) {
	p.bcastMsg(f)
	p.installRing(f, now)
}

func (p *Processor) installRing(f *formMsg, now time.Time) {
	reset := !p.membership.install(f, now)
	p.leaveRing(now)
	p.round, p.lastTokenAt = 0, now
	if reset {
		// Own messages already multicast under the abandoned lineage will
		// never be delivered; keep submit times only for messages still
		// waiting to be sent.
		live := make(map[uint64]sendMeta, p.pending.Len())
		keep := func(id uint64) {
			if meta, ok := p.sendTimes[id]; ok {
				live[id] = meta
			}
		}
		p.pending.Each(func(c *chunk) { keep(c.MsgID) })
		p.lazy.Each(func(m *heldMsg) { keep(m.id) })
		p.bulk.Each(func(m *heldMsg) { keep(m.id) })
		p.sendTimes = live
	}
	p.delivery.enterRing(Membership{Epoch: f.Ring.Epoch, Rep: f.Ring.Rep,
		Members: slices.Clone(p.members), Reset: reset, StartSeq: f.StartSeq})
	if f.Ring.Rep == p.addr {
		// The representative injects the first token.
		tok := &tokenMsg{Ring: f.Ring, Seq: f.StartSeq, Aru: p.myAru, AruSetter: p.addr, GCSeq: p.gcLow}
		p.forwardToken(tok, now, 0, p.cfg.window)
	}
}
