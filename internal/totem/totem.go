// Package totem implements a Totem-style single-ring reliable
// totally-ordered multicast protocol, the group-communication substrate
// the Eternal system conveys IIOP messages over (Moser et al., "Totem: A
// fault-tolerant multicast group communication system", CACM 1996).
//
// The protocol is token-ring based: a token rotates around the ring of
// live processors carrying the global sequence number, an
// all-received-up-to (aru) aggregation used for flow control and garbage
// collection, and a retransmission-request list. A processor multicasts
// only while holding the token, stamping each message with the next
// sequence number, which yields agreed (gap-free, identical at every
// processor) delivery order.
//
// Membership follows Totem's shape in simplified form: token loss or the
// arrival of a Join message moves processors into a gather phase where
// they advertise the set of processors they can hear; when the
// representative (smallest address) sees a stable set, it forms a new ring
// and delivery continues. Large application messages are fragmented into
// MTU-sized chunks, each a separate ordered multicast — exactly the
// behaviour behind the paper's Figure 6, where recovery time grows with
// state size because state larger than one Ethernet frame costs multiple
// multicast messages.
//
// Guarantees within one ring lineage (an unbroken chain of reformations):
// reliable, agreed-order, gap-free delivery. A processor that joins fresh,
// or rejoins from a divergent lineage (e.g. the losing side of a
// partition), is delivered a Membership view with Reset=true and resumes
// at the new ring's start sequence; Eternal's Recovery Mechanisms treat
// such members as recovering replicas and re-synchronize their state,
// which is the paper's recovery model.
package totem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eternal/internal/obs"
	"eternal/internal/ring"
	"eternal/internal/simnet"
)

// Packet is one transport frame. It is an alias of simnet.Packet so a
// simulated-network endpoint satisfies Transport directly — no bridging
// goroutine copying between two identical shapes on every frame.
type Packet = simnet.Packet

// Transport is the unreliable datagram layer totem runs over: a broadcast
// medium with bounded frame size, such as internal/simnet or UDP.
//
// Buffer ownership: the payload slice passed to Send and Broadcast is
// owned by the caller and is valid only for the duration of the call. An
// implementation that needs the bytes after returning (queued delivery,
// async I/O) must copy them first. This rule is what lets the protocol
// encode every frame into one buffer and overwrite it with the next (see
// doc/PERFORMANCE.md).
type Transport interface {
	// Addr returns this endpoint's unique address.
	Addr() string
	// Send transmits one frame to the named endpoint (best effort). The
	// payload must not be retained after the call returns.
	Send(to string, payload []byte) error
	// Broadcast transmits one frame to all endpoints including this one.
	// The payload must not be retained after the call returns.
	Broadcast(payload []byte) error
	// Recv returns the delivery channel; it closes when the transport does.
	Recv() <-chan Packet
	// MTU is the maximum frame payload size.
	MTU() int
	// Close detaches the endpoint.
	Close() error
}

// NewSimnetTransport adapts a simulated-network endpoint as a Transport.
// The endpoint already satisfies the interface (Packet is simnet.Packet),
// so this is the identity; it remains as the named constructor and the
// place the conformance is pinned.
func NewSimnetTransport(ep *simnet.Endpoint) Transport { return ep }

var _ Transport = (*simnet.Endpoint)(nil)

// Delivery is one event in the totally-ordered delivery stream: either an
// application message (View == nil; reassembled from its fragments) or a
// membership view change (View != nil, Payload empty).
//
// Views are delivered at a consistent position in the stream: after every
// message of the previous ring (sequence numbers up to the view's
// StartSeq) and before every message of the new ring. Every lineage member
// therefore observes messages and view changes interleaved identically —
// the property Eternal's replicated group-metadata state machine depends
// on (e.g. all nodes must agree which requests a failed primary still
// answered).
type Delivery struct {
	Seq     uint64
	Sender  string
	Payload []byte
	View    *Membership
	// App is whatever Config.Ordered attached to this message at its
	// ordered point (nil without the hook, and for views).
	App any
	// ReplyOwed is Config.Ordered's mark on a message this member sent: it
	// will itself submit the urgent reply, so the token visit that sequenced
	// it may wait for that (see mayRest). A wrong hint wastes a hold.
	ReplyOwed bool
}

// Membership is a view change. Members is sorted. Reset reports that this
// processor did not continue the previous sequence space (fresh join or
// divergent lineage) and must be re-synchronized by the layer above.
type Membership struct {
	Epoch    uint64
	Rep      string
	Members  []string
	Reset    bool
	StartSeq uint64
}

// Stats are cumulative protocol counters. Every one but BulkStalls is also
// exported as an eternal_totem_*_total metric, whose help string
// (registerMetrics) says what it counts.
type Stats struct {
	Multicasts        uint64
	ChunksSent        uint64
	Retransmits       uint64
	TokenRotations    uint64
	Deliveries        uint64
	ViewChanges       uint64
	Tombstones        uint64
	DataFrames        uint64 // equals ChunksSent without packing, lower with
	PackedChunks      uint64
	HurriesSent       uint64
	HurriesReceived   uint64
	PacedHops         uint64
	WithdrawnMessages uint64 // lazy ones (LazyDropped) included
	Rests             uint64
	ReplyHolds        uint64
	ReplyHoldTimeouts uint64
	LazySent          uint64
	LazyDropped       uint64
	BulkPromoted      uint64
	// BulkStalls counts visits that left bulk waiting behind the per-visit
	// quota (see MulticastBulk).
	BulkStalls uint64
}

// Config configures a Processor. Zero durations get defaults sized for
// LAN-scale simulation; tests shrink them for fast reformations.
type Config struct {
	Transport Transport
	// TokenLossTimeout triggers membership reformation when no token has
	// been seen for this long (default 250ms).
	TokenLossTimeout time.Duration
	// JoinInterval is the gather-phase Join rebroadcast period (default 40ms).
	JoinInterval time.Duration
	// StableFor is how long the alive set must stay unchanged before the
	// representative forms a ring (default 2*JoinInterval).
	StableFor time.Duration
	// Tick is the internal timer resolution (default 2ms).
	Tick time.Duration
	// MaxPerToken bounds chunks multicast per token visit (default 64).
	MaxPerToken int
	// Metrics receives the processor's live metrics (packet/byte traffic,
	// pending-queue depth, multicast→delivery latency). Nil disables
	// export; the protocol's cumulative Stats() counters work regardless.
	Metrics *obs.Registry
	// Recorder receives protocol-level flight-recorder events: token
	// losses and the other membership-reformation triggers, each anchored
	// to the processor's last delivered sequence number. Nil disables.
	Recorder *obs.Recorder
	// Spans receives per-invocation phase marks for traced multicasts
	// (enqueued behind the token, last fragment transmitted). Nil
	// disables; untraced multicasts never touch it either way.
	Spans *obs.SpanRecorder
	// BulkPerVisit is how many bulk messages (MulticastBulk) one token
	// visit moves into the sending queue; zero or less means all of them.
	// It is wiring, not a knob of its own: core sets it from
	// Config.StateChunksPerToken.
	BulkPerVisit int
	// Ordered, when set, is called on the ordering goroutine for every
	// application message at its agreed position in the total order, just
	// before the message is queued on Deliveries; it may set d.App, which
	// travels with the Delivery. Whatever it records is visible to every
	// later token visit — the token sits in the same inbox behind the
	// frame that carried the message — which is what lets a withdraw
	// callback (MulticastWithdrawable) decide on "a peer's copy is already
	// ordered" without racing the consumer of Deliveries. It must not
	// block or call into the Processor.
	Ordered func(d *Delivery)

	// tokenResend retransmits the last token forwarded if no activity
	// follows (TokenLossTimeout/4; a test on a lossy medium shortens it).
	tokenResend time.Duration
}

func (c Config) withDefaults() Config {
	if c.TokenLossTimeout <= 0 {
		c.TokenLossTimeout = 250 * time.Millisecond
	}
	if c.tokenResend <= 0 {
		c.tokenResend = c.TokenLossTimeout / 4
	}
	if c.JoinInterval <= 0 {
		c.JoinInterval = 40 * time.Millisecond
	}
	if c.StableFor <= 0 {
		c.StableFor = 2 * c.JoinInterval
	}
	if c.Tick <= 0 {
		c.Tick = 2 * time.Millisecond
	}
	if c.MaxPerToken <= 0 {
		c.MaxPerToken = 64
	}
	return c
}

// Errors returned by Processor methods.
var (
	ErrStopped     = errors.New("totem: processor stopped")
	ErrAddrTooLong = errors.New("totem: transport address exceeds 64 bytes")
	ErrMTUTooSmall = errors.New("totem: transport MTU too small for protocol headers")
)

// Processor is one member of the totem ring.
type Processor struct {
	cfg  Config
	tr   Transport
	addr string

	submitCh  chan submission
	closeCh   chan struct{}
	closeOnce sync.Once
	done      chan struct{}

	// Protocol state below is owned exclusively by the run goroutine: three
	// parts with their own state and no view of each other, and the
	// mechanism that wires them — it receives, asks the scheduler, and acts
	// (sends, keeps the token, broadcasts a hurry). membership.go,
	// delivery.go and scheduler.go say what crosses into and out of each.
	*membership
	*delivery
	sched scheduler

	// pending holds chunks enqueued locally and awaiting a token visit; a
	// ring buffer so delivered chunks are released, not retained by a
	// shifted slice's backing array.
	pending ring.Buffer[chunk]
	// lazy and bulk hold whole messages that wait outside pending, so they
	// never stand in front of urgent chunks: lazy ones until a token visit
	// finds them a Tick old and still not withdrawn, bulk ones until a
	// visit's quota lets them through. See promoteLazy, promoteBulk.
	lazy      ring.Buffer[heldMsg]
	bulk      ring.Buffer[heldMsg]
	msgID     uint64
	sendTimes map[uint64]sendMeta // own messages not yet delivered back, by msgID

	// The token's own bookkeeping: the last round seen, when, and the copy
	// last sent on, for the resend timer. parkedToken is the token while the
	// scheduler has it kept here: pacing an idle ring, or resting; quotaHeld
	// says its visit's bulk quota waits behind the replies it is held for.
	round         uint64
	lastTokenAt   time.Time
	lastSentToken *tokenMsg
	lastSentAt    time.Time
	tokenResends  int
	parkedToken   *tokenMsg
	quotaHeld     bool

	// wbuf is the frame buffer every send encodes into (encode); only the
	// run goroutine sends.
	wbuf []byte

	nMulticasts, nChunks, nDataFrames, nPacked, nWithdrawn atomic.Uint64
	nHurrySent, nHurryRecv, nPacedHops                     atomic.Uint64
	nRests, nHolds, nHoldTimeo                             atomic.Uint64
	nLazySent, nLazyDrop, nBulkProm, nBulkStalls           atomic.Uint64

	// Metrics export (registerMetrics says what each is; a private registry
	// when unconfigured, so hot paths never nil-check) and the rotation
	// profiler's bounded sample ring.
	mPktsIn, mBytesIn, mPktsOut, mBytesOut *obs.Counter
	mPending                               *obs.Gauge
	mLatency, mTokenHold, mTokenInterval   *obs.Histogram
	rotations                              *obs.RotationLog
}

// Start creates a processor on the given transport and begins gathering
// membership immediately.
func Start(cfg Config) (*Processor, error) {
	cfg = cfg.withDefaults()
	if cfg.Transport == nil {
		return nil, errors.New("totem: Config.Transport is required")
	}
	addr := cfg.Transport.Addr()
	if len(addr) > maxNameLen {
		return nil, fmt.Errorf("%w: %q", ErrAddrTooLong, addr)
	}
	if cfg.Transport.MTU() < fragMargin+64 {
		return nil, fmt.Errorf("%w: %d", ErrMTUTooSmall, cfg.Transport.MTU())
	}
	p := &Processor{
		cfg:        cfg,
		tr:         cfg.Transport,
		addr:       addr,
		submitCh:   make(chan submission, 256),
		closeCh:    make(chan struct{}),
		done:       make(chan struct{}),
		membership: &membership{self: addr, joinInterval: cfg.JoinInterval, stableFor: cfg.StableFor},
		sendTimes:  make(map[uint64]sendMeta),
		rotations:  obs.NewRotationLog(0),
	}
	p.delivery = newDelivery(addr, cfg.Ordered, p.frameDelivered, p.ownDelivered)
	p.registerMetrics(cfg.Metrics)
	go p.run()
	return p, nil
}

// registerMetrics wires the processor's export surface into the registry.
func (p *Processor) registerMetrics(r *obs.Registry) {
	if r == nil {
		r = obs.NewRegistry()
	}
	p.mPktsIn = r.Counter("eternal_totem_packets_in_total", "transport frames received")
	p.mBytesIn = r.Counter("eternal_totem_bytes_in_total", "transport bytes received")
	p.mPktsOut = r.Counter("eternal_totem_packets_out_total", "transport frames sent (broadcast and unicast)")
	p.mBytesOut = r.Counter("eternal_totem_bytes_out_total", "transport bytes sent")
	p.mPending = r.Gauge("eternal_totem_sequencer_queue_depth", "chunks enqueued and awaiting a token visit for sequencing")
	p.mLatency = r.Histogram("eternal_totem_mcast_delivery_seconds", "multicast submit to agreed-order delivery latency of own messages", nil)
	p.mTokenHold = r.Histogram("eternal_totem_token_hold_seconds", "time this node held each token visit (retransmission service + pending-queue drain)", nil)
	p.mTokenInterval = r.Histogram("eternal_totem_token_interval_seconds", "full-rotation interval between this node's token visits", nil)
	for _, c := range []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"eternal_totem_multicasts_total", "application messages submitted for total ordering", &p.nMulticasts},
		{"eternal_totem_chunks_sent_total", "MTU-sized chunks multicast while holding the token", &p.nChunks},
		{"eternal_totem_retransmits_total", "chunks retransmitted to serve token Rtr requests", &p.nRetrans},
		{"eternal_totem_token_rotations_total", "completed token rotations observed as aru setter (the ring representative)", &p.nRotations},
		{"eternal_totem_deliveries_total", "messages delivered in agreed order", &p.nDeliveries},
		{"eternal_totem_view_changes_total", "membership views delivered", &p.nViews},
		{"eternal_totem_tombstones_total", "unrecoverable sequence numbers skipped", &p.nTombstones},
		{"eternal_totem_data_frames_total", "data frames initially transmitted (retransmissions excluded)", &p.nDataFrames},
		{"eternal_totem_packed_messages_total", "chunks that shared a packed frame with at least one other chunk", &p.nPacked},
		{"eternal_totem_hurries_sent_total", "token hurry nudges broadcast for urgent work while the token may be parked or resting elsewhere", &p.nHurrySent},
		{"eternal_totem_hurries_received_total", "token hurry nudges received from peers", &p.nHurryRecv},
		{"eternal_totem_paced_hops_total", "token hops parked for idle pacing before forwarding", &p.nPacedHops},
		{"eternal_totem_withdrawn_messages_total", "submitted messages withdrawn by their sender before a token visit sequenced them", &p.nWithdrawn},
		{"eternal_totem_rests_total", "token visits that ended with the token resting at this member, the ring's only data sender", &p.nRests},
		{"eternal_totem_reply_holds_total", "token visits that ended with the token held at this member for the reply to a request the visit sequenced", &p.nHolds},
		{"eternal_totem_reply_hold_timeouts_total", "reply holds that met their one-Tick deadline before the reply: a servant slower than a Tick", &p.nHoldTimeo},
		{"eternal_totem_lazy_sent_total", "lazy messages moved into the sending queue: a Tick old and still not withdrawn", &p.nLazySent},
		{"eternal_totem_lazy_dropped_total", "lazy messages found withdrawn by the token visit that would have sent them", &p.nLazyDrop},
		{"eternal_totem_bulk_promoted_total", "bulk messages moved into the sending queue by token visits", &p.nBulkProm},
	} {
		r.CounterFunc(c.name, c.help, func() float64 { return float64(c.v.Load()) })
	}
	r.GaugeFunc("eternal_totem_frames_per_message", "data frames per application message; packing drives this below the fragment count", func() float64 {
		return float64(p.nDataFrames.Load()) / float64(max(p.nMulticasts.Load(), 1))
	})
}

// Addr returns the processor's transport address.
func (p *Processor) Addr() string { return p.addr }

// Deliveries returns the agreed-order delivery stream.
func (p *Processor) Deliveries() <-chan Delivery { return p.deliveries.Out() }

// Views returns the membership view stream.
func (p *Processor) Views() <-chan Membership { return p.views.Out() }

// Stats returns a snapshot of the protocol counters.
func (p *Processor) Stats() Stats {
	return Stats{
		Multicasts:        p.nMulticasts.Load(),
		ChunksSent:        p.nChunks.Load(),
		Retransmits:       p.nRetrans.Load(),
		TokenRotations:    p.nRotations.Load(),
		Deliveries:        p.nDeliveries.Load(),
		ViewChanges:       p.nViews.Load(),
		Tombstones:        p.nTombstones.Load(),
		DataFrames:        p.nDataFrames.Load(),
		PackedChunks:      p.nPacked.Load(),
		HurriesSent:       p.nHurrySent.Load(),
		HurriesReceived:   p.nHurryRecv.Load(),
		PacedHops:         p.nPacedHops.Load(),
		WithdrawnMessages: p.nWithdrawn.Load(),
		Rests:             p.nRests.Load(),
		ReplyHolds:        p.nHolds.Load(),
		ReplyHoldTimeouts: p.nHoldTimeo.Load(),
		LazySent:          p.nLazySent.Load(),
		LazyDropped:       p.nLazyDrop.Load(),
		BulkPromoted:      p.nBulkProm.Load(),
		BulkStalls:        p.nBulkStalls.Load(),
	}
}

// Multicast submits one application message for reliable totally-ordered
// delivery to all ring members (including the sender). The payload is
// fragmented into MTU-sized chunks transparently; delivery is whole
// messages. Multicast may block briefly when the submit queue is full.
func (p *Processor) Multicast(payload []byte) error {
	return p.MulticastTraced(payload, 0, false)
}

// MulticastBackground is Multicast for low-urgency control traffic
// (consistency-audit marks and reports): the message rides the paced
// token without resetting the idle counter, waking a parked token or
// triggering a hurry nudge, so a quiescent ring stays paced across audit
// epochs. Ordering and reliability guarantees are identical.
func (p *Processor) MulticastBackground(payload []byte) error {
	return p.submit(payload, submission{class: classBackground})
}

// MulticastBulk is Multicast for state-transfer payload: the message
// waits in a lane of its own, in submission order, and each token visit
// lets at most Config.BulkPerVisit whole messages into the sending queue,
// behind whatever urgent work is already there — so a large transfer
// shares every visit with foreground traffic instead of standing in front
// of it. A member with bulk waiting keeps the token moving: it neither
// paces it nor rests on it as the ring's only sender. It may hold it for a
// reply it owes to a request the visit sequenced; the visit's quota then
// goes out behind that reply, ahead of the token.
func (p *Processor) MulticastBulk(payload []byte) error {
	return p.submit(payload, submission{class: classBulk})
}

// MulticastTraced is Multicast carrying span-tracing metadata: the
// message's envelope trace id (0 = untraced) and whether it is a reply,
// so the configured span recorder can stamp the enqueue and transmit
// phases under the right name.
func (p *Processor) MulticastTraced(payload []byte, trace uint64, reply bool) error {
	return p.submit(payload, submission{trace: trace, reply: reply})
}

// MulticastWithdrawable is MulticastTraced for a message the sender may
// stop wanting while it waits for the token — a reply of which a peer's
// copy gets ordered first. withdraw is polled on the ordering goroutine
// when a token visit is about to sequence the message's first chunk: true
// drops the whole message (it is never sent, in part or in full, and
// leaves the pending count), false sends it. It may be polled again while
// it answers false; its first true is final. Like Config.Ordered it must
// not block or call into the Processor.
func (p *Processor) MulticastWithdrawable(payload []byte, trace uint64, reply bool, withdraw func() bool) error {
	return p.submit(payload, submission{trace: trace, reply: reply, withdraw: withdraw})
}

// MulticastLazy is MulticastWithdrawable for a reply that is only
// insurance: another member is expected to send its copy first, and this
// one matters only if that member dies before it does. The message
// neither wakes nor nudges the token and waits outside the sending queue,
// so it never stands in front of urgent messages; a token visit sends it
// only once it is at least one Tick old and withdraw still answers false,
// and drops it when withdraw answers true.
func (p *Processor) MulticastLazy(payload []byte, trace uint64, withdraw func() bool) error {
	return p.submit(payload, submission{trace: trace, reply: true, class: classLazy, withdraw: withdraw})
}

func (p *Processor) submit(payload []byte, sub submission) error {
	chunkSize := p.tr.MTU() - fragMargin - len(p.addr)
	// One defensive copy of the whole payload; chunks are subslices of it
	// rather than per-chunk allocations.
	buf := make([]byte, len(payload))
	copy(buf, payload)
	var chunks [][]byte
	if len(buf) == 0 {
		chunks = [][]byte{{}}
	}
	for off := 0; off < len(buf); off += chunkSize {
		end := min(off+chunkSize, len(buf))
		chunks = append(chunks, buf[off:end:end])
	}
	sub.chunks = chunks
	select {
	case p.submitCh <- sub:
		p.nMulticasts.Add(1)
		return nil
	case <-p.done:
		return ErrStopped
	}
}

// Stop shuts the processor down and closes its transport. Other members
// detect the silence as a failure and reform the ring.
func (p *Processor) Stop() {
	p.closeOnce.Do(func() { close(p.closeCh) })
	<-p.done
}

func (p *Processor) run() {
	defer func() {
		p.tr.Close()
		// Drain the transport so its forwarding goroutine can exit.
		go func() {
			for range p.tr.Recv() {
			}
		}()
		p.deliveries.Close()
		p.views.Close()
		close(p.done)
	}()
	ticker := time.NewTicker(p.cfg.Tick)
	defer ticker.Stop()

	p.enterGather(time.Now(), "")

	for {
		select {
		case <-p.closeCh:
			return
		case sub := <-p.submitCh:
			now := time.Now()
			p.enqueue(sub, now)
			p.kick(sub.class, now)
		case pkt, ok := <-p.tr.Recv():
			if !ok {
				return
			}
			p.handlePacket(pkt, time.Now())
		case now := <-ticker.C:
			p.onTick(now)
		}
	}
}

func (p *Processor) handlePacket(pkt Packet, now time.Time) {
	p.mPktsIn.Inc()
	p.mBytesIn.Add(uint64(len(pkt.Payload)))
	msg, err := decodePacket(pkt.Payload)
	if err != nil {
		return // corrupt frame: drop, like a bad checksum
	}
	switch m := msg.(type) {
	case *dataMsg:
		p.handleData(m, now)
	case *tokenMsg:
		p.handleToken(m, now)
	case *joinMsg:
		p.handleJoin(m, now)
	case *formMsg:
		if p.membership.acceptsForm(m) {
			p.installRing(m, now)
		}
	case *announceMsg:
		if p.membership.heardAnnounce(m) {
			p.enterGather(now, "foreign-ring")
		}
	case *hurryMsg:
		p.handleHurry(m, now)
	}
}

// --- timers ---

func (p *Processor) onTick(now time.Time) {
	switch p.state {
	case stateGather:
		if p.membership.joinDue(now) {
			p.sendJoin(now)
		}
		if f := p.membership.propose(p.seqHigh, now); f != nil {
			p.bcastMsg(f)
			p.installRing(f, now)
		}
	case stateOperational:
		// The representative's beacon must fire even while the token is
		// parked: a long-paced ring (idle single member, deep backoff)
		// still has to be discoverable for partition merges.
		if p.membership.beaconDue(now) {
			p.bcastMsg(&announceMsg{Ring: p.ring})
		}
		if p.parkedToken != nil {
			if p.sched.due(now) {
				p.releaseParked(now)
			}
			return
		}
		if now.Sub(p.lastTokenAt) > p.cfg.TokenLossTimeout {
			p.enterGather(now, "token-loss")
			return
		}
		if p.lastSentToken != nil && now.Sub(p.lastSentAt) >= p.cfg.tokenResend && p.tokenResends < 3 {
			p.tokenResends++
			p.lastSentAt = now
			p.sendMsg(p.membership.successor(), p.lastSentToken)
		}
	}
}

// bcastMsg broadcasts m.
func (p *Processor) bcastMsg(m wireMsg) { _ = p.tr.Broadcast(p.encode(m)) }

// sendMsg unicasts m.
func (p *Processor) sendMsg(to string, m wireMsg) { _ = p.tr.Send(to, p.encode(m)) }

// encode encodes m into the processor's one frame buffer, overwriting the
// last frame — legal because Transport implementations must not retain the
// payload after Send or Broadcast returns (see Transport).
func (p *Processor) encode(m wireMsg) []byte {
	p.wbuf = m.appendTo(p.wbuf[:0])
	p.mPktsOut.Inc()
	p.mBytesOut.Add(uint64(len(p.wbuf)))
	return p.wbuf
}
