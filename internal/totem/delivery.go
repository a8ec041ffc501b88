package totem

import (
	"slices"
	"sync/atomic"
	"time"
)

// fragMargin is the reserve for headers within one frame: a frame holding
// one fragment and the fragment's sender name fits the MTU.
const fragMargin = packedFrameOverhead + packedChunkOverhead

// maxRtrPerToken bounds the retransmission list so tokens fit one frame.
const maxRtrPerToken = 100

// missThreshold is the number of token visits a missing sequence number
// may stay unsatisfied before it is declared unrecoverable and skipped.
const missThreshold = 10

type partial struct {
	frags  [][]byte
	next   uint32
	broken bool
}

// pendingView is a view change waiting for its stream position.
type pendingView struct {
	at   uint64
	view Membership
}

// delivery is the reliable-delivery part of a member: the frames it holds
// until every member has them, the gaps it asks the token to have filled,
// and the agreed-order stream it hands up. It knows no ring, no sending
// queue and no transport: the mechanism hands it the current ring's frames
// and does its sending. What leaves it are the two streams, the Ordered
// hook and the two upcalls below.
type delivery struct {
	self string

	seqHigh, myAru, gcLow uint64
	store                 map[uint64]*dataMsg
	reasm                 map[string]*partial
	miss                  map[uint64]int
	// pendingViews holds view changes whose stream position (StartSeq) the
	// local aru has not reached yet; they are released by advanceAru.
	pendingViews []pendingView

	deliveries *pump[Delivery]
	views      *pump[Membership]
	ordered    func(*Delivery) // Config.Ordered
	// frameDelivered is told of each data frame delivered (its sender, how
	// many of its messages the hook marked ReplyOwed); ownDelivered of each
	// locally originated message delivered whole.
	frameDelivered func(sender string, owed int, now time.Time)
	ownDelivered   func(msgID uint64, now time.Time)

	nRetrans, nRotations, nDeliveries, nViews, nTombstones atomic.Uint64
}

func newDelivery(self string, ordered func(*Delivery),
	frameDelivered func(string, int, time.Time), ownDelivered func(uint64, time.Time)) *delivery {
	return &delivery{
		self:           self,
		store:          make(map[uint64]*dataMsg),
		reasm:          make(map[string]*partial),
		miss:           make(map[uint64]int),
		deliveries:     newPump[Delivery](),
		views:          newPump[Membership](),
		ordered:        ordered,
		frameDelivered: frameDelivered,
		ownDelivered:   ownDelivered,
	}
}

// enterRing takes the view of a newly installed ring. A member that
// continues the lineage keeps what it holds; one that does not (v.Reset)
// starts over at the ring's first sequence number, and views queued for
// positions in the abandoned sequence space go with it.
func (d *delivery) enterRing(v Membership) {
	d.miss = make(map[uint64]int)
	if v.Reset {
		d.store = make(map[uint64]*dataMsg)
		d.reasm = make(map[string]*partial)
		d.myAru, d.gcLow, d.seqHigh = v.StartSeq, v.StartSeq, v.StartSeq
		d.pendingViews = nil
	} else if v.StartSeq > d.seqHigh {
		d.seqHigh = v.StartSeq
	}
	d.pendingViews = append(d.pendingViews, pendingView{at: v.StartSeq, view: v})
	d.releaseViews()
}

// accept takes a data frame of the current ring off the wire.
func (d *delivery) accept(m *dataMsg, now time.Time) {
	if m.Seq <= d.gcLow || m.Seq <= d.myAru {
		return // already garbage-collected or delivered
	}
	if _, dup := d.store[m.Seq]; dup {
		return
	}
	d.hold(m)
	delete(d.miss, m.Seq)
	d.advanceAru(now)
}

// hold stores a frame without delivering: what accept does with a peer's,
// and all a sender does with its own until its visit has sent them all.
func (d *delivery) hold(m *dataMsg) {
	d.store[m.Seq] = m
	if m.Seq > d.seqHigh {
		d.seqHigh = m.Seq
	}
}

// serve is step 1 of a token visit: rebroadcast, under the token's ring,
// every requested frame held here. It returns how many it served and the
// requests still open.
func (d *delivery) serve(tok *tokenMsg, bcast func(wireMsg)) (served int, unsatisfied []uint64) {
	if tok.Seq > d.seqHigh {
		d.seqHigh = tok.Seq
	}
	for _, s := range tok.Rtr {
		if m, ok := d.store[s]; ok && len(m.Chunks) > 0 {
			re := *m
			re.Ring = tok.Ring // re-tag under the current ring
			bcast(&re)
			d.nRetrans.Add(1)
			served++
		} else if s > d.gcLow {
			unsatisfied = append(unsatisfied, s)
		}
	}
	return served, unsatisfied
}

// request is step 2: put what is missing here on the token's request list,
// behind the requests left open. Every visit on which a sequence number is
// still missing counts against it, whether this member adds the request or
// finds it already on the token: a request nobody can serve rides the token
// for good, and counting only fresh additions would leave it one short of
// the threshold forever — delivery wedged behind a frame that died with its
// sender.
func (d *delivery) request(tok *tokenMsg, open []uint64, now time.Time) {
	have := make(map[uint64]bool, len(open))
	for _, s := range open {
		have[s] = true
	}
	for s := d.myAru + 1; s <= tok.Seq; s++ {
		if _, ok := d.store[s]; ok {
			continue
		}
		if !have[s] {
			if len(open) >= maxRtrPerToken {
				break
			}
			open = append(open, s)
		}
		d.miss[s]++
		if d.miss[s] > missThreshold {
			// No live member holds this message: skip it with a chunkless
			// tombstone so delivery can proceed (see package doc). The
			// request stays on the token for the members still counting.
			d.store[s] = &dataMsg{Ring: tok.Ring, Seq: s}
			delete(d.miss, s)
			d.nTombstones.Add(1)
		}
	}
	tok.Rtr = open
	d.advanceAru(now)
}

// aggregate is steps 4 and 5: fold this member's aru into the token — a
// completed rotation fixes the GC point — and drop what everyone has.
func (d *delivery) aggregate(tok *tokenMsg) {
	if tok.AruSetter == "" || tok.AruSetter == d.self {
		if tok.AruSetter == d.self {
			tok.GCSeq = tok.Aru
			d.nRotations.Add(1)
		}
		tok.Aru = d.myAru
		tok.AruSetter = d.self
	} else if d.myAru < tok.Aru {
		tok.Aru = d.myAru
	}
	if tok.GCSeq > d.gcLow {
		for s := d.gcLow + 1; s <= tok.GCSeq; s++ {
			delete(d.store, s)
		}
		d.gcLow = tok.GCSeq
	}
}

// advanceAru delivers every message that has become contiguous, releasing
// pending view changes at their stream positions.
func (d *delivery) advanceAru(now time.Time) {
	d.releaseViews()
	for {
		m, ok := d.store[d.myAru+1]
		if !ok {
			break
		}
		d.myAru++
		delete(d.miss, d.myAru)
		d.deliverMsg(m, now)
		d.releaseViews()
	}
}

func (d *delivery) releaseViews() {
	for len(d.pendingViews) > 0 && d.myAru >= d.pendingViews[0].at {
		pv := d.pendingViews[0]
		d.pendingViews = d.pendingViews[1:]
		v := pv.view
		if !v.Reset {
			// Partial reassemblies from members that did not survive end
			// here, at the view's position in the stream — not when the
			// ring was installed: the old ring's last frames may still be
			// on their way to this member, and one that already had them
			// delivered the message they complete.
			for sender := range d.reasm {
				if !slices.Contains(v.Members, sender) {
					delete(d.reasm, sender)
				}
			}
		}
		d.nViews.Add(1)
		d.views.In(v)
		d.deliveries.In(Delivery{Seq: pv.at, View: &v})
	}
}

// deliverMsg delivers one data frame: every chunk it carries, in order. A
// chunkless frame is the tombstone for an unrecoverable sequence number.
// Chunks packed into one frame share its sequence number, so consecutive
// Deliveries may carry equal Seq values.
func (d *delivery) deliverMsg(m *dataMsg, now time.Time) {
	if len(m.Chunks) == 0 {
		return
	}
	owed := 0
	for i := range m.Chunks {
		owed += d.deliverChunk(m.Seq, &m.Chunks[i], now)
	}
	d.frameDelivered(m.Chunks[0].Sender, owed, now)
}

// deliverChunk returns 1 if the chunk completed a message the Ordered hook
// marked ReplyOwed.
func (d *delivery) deliverChunk(seq uint64, c *chunk, now time.Time) int {
	if c.FragTotal == 0 {
		return 0 // malformed chunk; a wire frame never carries one
	}
	if c.FragTotal == 1 {
		d.observeOwn(c, now)
		return d.emit(Delivery{Seq: seq, Sender: c.Sender, Payload: c.Payload})
	}
	key := c.Sender
	pa := d.reasm[key]
	if c.FragIdx == 0 {
		pa = &partial{}
		d.reasm[key] = pa
	}
	if pa == nil || pa.broken || pa.next != c.FragIdx {
		// A fragment whose predecessors were lost (tombstoned): the whole
		// message is undeliverable; drop the remainder quietly.
		if pa != nil {
			pa.broken = true
		}
		if c.FragIdx == c.FragTotal-1 {
			delete(d.reasm, key)
		}
		return 0
	}
	pa.frags = append(pa.frags, c.Payload)
	pa.next++
	if pa.next < c.FragTotal {
		return 0
	}
	delete(d.reasm, key)
	d.observeOwn(c, now)
	return d.emit(Delivery{Seq: seq, Sender: c.Sender, Payload: slices.Concat(pa.frags...)})
}

func (d *delivery) emit(dv Delivery) (owed int) {
	d.nDeliveries.Add(1)
	if d.ordered != nil {
		d.ordered(&dv)
		if dv.ReplyOwed {
			owed = 1
		}
	}
	d.deliveries.In(dv)
	return owed
}

// observeOwn reports a locally originated message at the delivery of its
// last fragment.
func (d *delivery) observeOwn(c *chunk, now time.Time) {
	if c.Sender == d.self {
		d.ownDelivered(c.MsgID, now)
	}
}
