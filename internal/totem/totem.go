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
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eternal/internal/cdr"
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
// encode frames into pooled buffers and recycle them immediately after
// handing them to the transport (see doc/PERFORMANCE.md).
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

// Stats are cumulative protocol counters.
type Stats struct {
	Multicasts     uint64
	ChunksSent     uint64
	Retransmits    uint64
	TokenRotations uint64
	Deliveries     uint64
	ViewChanges    uint64
	Tombstones     uint64
	// DataFrames counts initial data-frame transmissions (retransmissions
	// excluded). Without packing it equals ChunksSent; with packing it is
	// lower whenever sub-MTU chunks shared a frame.
	DataFrames uint64
	// PackedChunks counts chunks that traveled in a frame shared with at
	// least one other chunk.
	PackedChunks uint64
	// HurriesSent/HurriesReceived count token hurry nudges: broadcasts
	// that wake an idle-paced ring when a member enqueues a message.
	HurriesSent     uint64
	HurriesReceived uint64
	// PacedHops counts token hops parked for idle pacing before being
	// forwarded.
	PacedHops uint64
	// WithdrawnMessages counts submitted messages their sender withdrew
	// before a token visit sequenced them (see MulticastWithdrawable),
	// lazy ones (LazyDropped) included.
	WithdrawnMessages uint64
	// Rests counts token visits that ended with this member keeping the
	// token because it was the ring's only data sender, ReplyHolds those
	// that kept it for the reply to a request they had just sequenced, and
	// ReplyHoldTimeouts the holds that met their deadline first (see mayRest).
	Rests             uint64
	ReplyHolds        uint64
	ReplyHoldTimeouts uint64
	// LazySent counts lazy messages a token visit found a Tick old and
	// still wanted, and moved into the sending queue; LazyDropped counts
	// those it found withdrawn instead (see MulticastLazy).
	LazySent    uint64
	LazyDropped uint64
	// BulkPromoted counts bulk messages token visits moved into the
	// sending queue; BulkStalls counts visits that left bulk waiting
	// behind the per-visit quota (see MulticastBulk).
	BulkPromoted uint64
	BulkStalls   uint64
}

// Config configures a Processor. Zero durations get defaults sized for
// LAN-scale simulation; tests shrink them for fast reformations.
type Config struct {
	Transport Transport
	// TokenLossTimeout triggers membership reformation when no token has
	// been seen for this long (default 250ms).
	TokenLossTimeout time.Duration
	// TokenResend retransmits the last token we forwarded if no activity
	// follows (default TokenLossTimeout/4).
	TokenResend time.Duration
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
	// RotationCapacity bounds the token-rotation profiler's sample ring
	// (default obs.DefaultRotationCapacity; negative disables profiling).
	RotationCapacity int
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
}

func (c Config) withDefaults() Config {
	if c.TokenLossTimeout <= 0 {
		c.TokenLossTimeout = 250 * time.Millisecond
	}
	if c.TokenResend <= 0 {
		c.TokenResend = c.TokenLossTimeout / 4
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

// idleGraceTicks×Tick is the ordering layer's one "has it been like this
// for a while" threshold. Idle pacing: the token keeps rotating at wire
// speed this long after a member's last foreground activity before that
// member backs its hops off. Resting: a member keeps the token once it has
// been the ring's only data sender for this long (see mayRest), and a peer
// nudges a token it believes is resting by the same measure.
const idleGraceTicks = 2

func (c Config) idleGrace() time.Duration { return idleGraceTicks * c.Tick }

// fragMargin is the reserve for chunk headers within one frame.
const fragMargin = 192

// maxRtrPerToken bounds the retransmission list so tokens fit one frame.
const maxRtrPerToken = 100

// idleHopsCap bounds the token's idle-hop counter so it cannot wrap.
const idleHopsCap = 1 << 20

// missThreshold is the number of token visits a missing sequence number
// may stay unsatisfied before it is declared unrecoverable and skipped.
const missThreshold = 10

// maxPaceTicks caps the idle pacer's exponential backoff: a long-idle
// holder parks the token for up to this many ticks per hop (further
// clamped so a paced rotation stays within TokenLossTimeout/4).
const maxPaceTicks = 4

// Gather-phase peers not heard from for joinExpiryIntervals×JoinInterval
// are dropped; the representative beacons its ring every
// announceIntervals×JoinInterval so foreign rings find each other after a
// partition heals.
const (
	joinExpiryIntervals = 5
	announceIntervals   = 8
)

// Errors returned by Processor methods.
var (
	ErrStopped     = errors.New("totem: processor stopped")
	ErrAddrTooLong = errors.New("totem: transport address exceeds 64 bytes")
	ErrMTUTooSmall = errors.New("totem: transport MTU too small for protocol headers")
)

const (
	stateGather = iota
	stateOperational
)

type joinRecord struct {
	msg    *joinMsg
	seenAt time.Time
}

type partial struct {
	frags  [][]byte
	next   uint32
	broken bool
}

// Processor is one member of the totem ring.
type Processor struct {
	cfg  Config
	tr   Transport
	addr string

	submitCh  chan submission
	closeCh   chan struct{}
	closeOnce sync.Once
	done      chan struct{}

	deliveries *pump[Delivery]
	views      *pump[Membership]

	// Protocol state below is owned exclusively by the run goroutine.
	state    int
	ring     ringIdentity
	prevRing ringIdentity
	members  []string
	seqHigh  uint64
	myAru    uint64
	gcLow    uint64
	store    map[uint64]*dataMsg
	// pending holds chunks enqueued locally and awaiting a token visit; a
	// ring buffer so delivered chunks are released, not retained by a
	// shifted slice's backing array.
	pending ring.Buffer[chunk]
	// lazy and bulk hold whole messages that wait outside pending, so they
	// never stand in front of urgent chunks: lazy ones until a token visit
	// finds them a Tick old and still not withdrawn, bulk ones until a
	// visit's quota lets them through. See promoteHeld.
	lazy  ring.Buffer[heldMsg]
	bulk  ring.Buffer[heldMsg]
	msgID uint64
	reasm map[string]*partial
	round uint64
	miss  map[uint64]int

	joinInfo     map[string]joinRecord
	stableSince  time.Time
	aliveKey     string
	lastJoinSent time.Time
	maxEpoch     uint64

	// pendingViews holds view changes whose stream position (StartSeq) the
	// local aru has not reached yet; they are released by advanceAru.
	pendingViews []pendingView

	lastTokenAt   time.Time
	lastSentToken *tokenMsg
	lastSentAt    time.Time
	tokenResends  int
	// parkedToken holds the token while pacing an idle ring (including the
	// single-member self-delivery case) or while resting here; it is
	// released once parkedUntil passes (the adaptive pacer's backoff, or
	// one Tick after the rest began), or immediately when a hurry nudge
	// arrives. A local urgent enqueue releases a paced token and is served
	// in place by a resting one. resting is why a rest began (obs.Rest…).
	parkedToken    *tokenMsg
	parkedUntil    time.Time
	resting        string
	lastAnnounceAt time.Time

	// Reply holds. ownOwed counts deliveries marked ReplyOwed; owed is how
	// many the latest arriving token visit sequenced (at owedAt) less the
	// urgent replies enqueued since — what a hold waits for. rotation is
	// the running median of how long the token stays away from this member
	// (a step towards each absence, so one stalled rotation barely moves
	// it): what a hold saves the reply and what the peers' holds cost this
	// member, hence the most its own may cost them. holdDisarmed is set
	// when a visit's last owed reply follows its requests by more than
	// that, or not by the deadline, and cleared when one is that prompt
	// again: a slow servant costs its peers once.
	ownOwed      uint64
	owed         int
	owedAt       time.Time
	rotation     time.Duration
	holdDisarmed bool

	// Adaptive pacing state. lastActivityAt is the last time this member
	// did foreground protocol work (sent or forwarded non-background
	// chunks, served or requested retransmissions); the pacer holds wire
	// speed for idleGrace past it. hurried marks that a hurry nudge has
	// arrived (or been sent) since this member's last forward: the next
	// forward neither paces nor rests, and clears it. canNudge is the one
	// nudge each token departure buys; it is spent only while wantToken —
	// urgent or bulk work was enqueued since the token was last here — and
	// only if the token may be held somewhere: leftIdle says it left this
	// member with IdleHops > 0, so an idle rotation can complete and park
	// it before it returns, and restingElsewhere says another member looks
	// like a resting sole sender. soleSender is the member whose data
	// frames were the last delivered here and soleSince the first of its
	// unbroken run — every member sees every data frame, so "I have been
	// the only sender for idleGrace" is local knowledge. lastPaceTicks is
	// the backoff applied by the most recent forward (0 = wire speed),
	// recorded into the rotation profile.
	lastActivityAt time.Time
	hurried        bool
	canNudge       bool
	leftIdle       bool
	wantToken      bool
	soleSender     string
	soleSince      time.Time
	lastPaceTicks  int

	nMulticasts atomic.Uint64
	nChunks     atomic.Uint64
	nRetrans    atomic.Uint64
	nRotations  atomic.Uint64
	nDeliveries atomic.Uint64
	nViews      atomic.Uint64
	nTombstones atomic.Uint64
	nDataFrames atomic.Uint64
	nPacked     atomic.Uint64
	nHurrySent  atomic.Uint64
	nHurryRecv  atomic.Uint64
	nPacedHops  atomic.Uint64
	nWithdrawn  atomic.Uint64
	nRests      atomic.Uint64
	nHolds      atomic.Uint64
	nHoldTimeo  atomic.Uint64
	nLazySent   atomic.Uint64
	nLazyDrop   atomic.Uint64
	nBulkProm   atomic.Uint64
	nBulkStalls atomic.Uint64

	// Metrics export (nil-safe via a private registry when unconfigured).
	mPktsIn   *obs.Counter
	mBytesIn  *obs.Counter
	mPktsOut  *obs.Counter
	mBytesOut *obs.Counter
	// mPending is the sequencing queue depth: chunks enqueued locally and
	// waiting for a token visit to be stamped and multicast.
	mPending *obs.Gauge
	// mLatency is the multicast→delivery latency of this processor's own
	// messages (submit to agreed-order delivery, the full token-ring
	// ordering cost).
	mLatency *obs.Histogram
	// mTokenHold/mTokenInterval are the rotation profiler's histograms:
	// how long this node holds each token visit, and the full-rotation
	// interval between visits.
	mTokenHold     *obs.Histogram
	mTokenInterval *obs.Histogram
	// rotations is the token-rotation profiler's bounded sample ring
	// (nil when disabled).
	rotations *obs.RotationLog
	// sendTimes records the submit metadata of locally originated
	// messages by msgID; owned by the run goroutine.
	sendTimes map[uint64]sendMeta
}

// class says how badly a submission wants the token.
type class uint8

const (
	// classUrgent wakes a token parked here and may nudge one held
	// elsewhere: requests, replies their client is waiting for, membership
	// and recovery control.
	classUrgent class = iota
	// classBackground rides whatever visit comes without waking, nudging
	// or counting as activity (audit marks and reports).
	classBackground
	// classLazy is a withdrawable message that is only insurance — a reply
	// another replica is expected to send first. It waits outside the
	// sending queue and a token visit sends it only once it is a Tick old
	// and still not withdrawn.
	classLazy
	// classBulk is state-transfer payload: it waits outside the sending
	// queue and each token visit lets Config.BulkPerVisit messages in,
	// behind whatever urgent work is queued.
	classBulk
)

// submission is one application message queued for the run goroutine:
// its pre-fragmented chunks, its class and the span-tracing metadata.
// withdraw, when set, lets the sender take the message back until a token
// visit sequences it.
type submission struct {
	chunks   [][]byte
	trace    uint64
	reply    bool
	class    class
	withdraw func() bool
}

// sendMeta is what the processor remembers about a locally originated
// message between submission and self-delivery.
type sendMeta struct {
	at       time.Time
	trace    uint64
	reply    bool
	class    class
	withdraw func() bool
}

// heldMsg is one whole message in a holding queue (lazy or bulk), not yet
// cut into the sending queue's chunks.
type heldMsg struct {
	id     uint64
	chunks [][]byte
}

// Start creates a processor on the given transport and begins gathering
// membership immediately.
func Start(cfg Config) (*Processor, error) {
	cfg = cfg.withDefaults()
	if cfg.Transport == nil {
		return nil, errors.New("totem: Config.Transport is required")
	}
	addr := cfg.Transport.Addr()
	if len(addr) > 64 {
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
		deliveries: newPump[Delivery](),
		views:      newPump[Membership](),
		store:      make(map[uint64]*dataMsg),
		reasm:      make(map[string]*partial),
		miss:       make(map[uint64]int),
		joinInfo:   make(map[string]joinRecord),
		sendTimes:  make(map[uint64]sendMeta),
	}
	if cfg.RotationCapacity >= 0 {
		p.rotations = obs.NewRotationLog(cfg.RotationCapacity)
	}
	p.registerMetrics(cfg.Metrics)
	go p.run()
	return p, nil
}

// registerMetrics wires the processor's export surface into the registry
// (a private one when nil, so hot paths never nil-check).
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
		v := c.v
		r.CounterFunc(c.name, c.help, func() float64 { return float64(v.Load()) })
	}
	r.GaugeFunc("eternal_totem_frames_per_message", "data frames per application message; packing drives this below the fragment count", func() float64 {
		m := p.nMulticasts.Load()
		if m == 0 {
			return 0
		}
		return float64(p.nDataFrames.Load()) / float64(m)
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
// paces nor rests.
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

func (p *Processor) enqueue(sub submission, now time.Time) {
	p.msgID++
	m := heldMsg{id: p.msgID, chunks: sub.chunks}
	p.sendTimes[m.id] = sendMeta{at: now, trace: sub.trace, reply: sub.reply, class: sub.class, withdraw: sub.withdraw}
	if sub.reply && sub.class == classUrgent && p.owed > 0 {
		if p.owed--; p.owed == 0 {
			p.holdDisarmed = now.Sub(p.owedAt) > p.rotation
		}
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
		p.pending.Push(chunk{
			Sender:    p.addr,
			MsgID:     m.id,
			FragIdx:   uint32(i),
			FragTotal: total,
			Payload:   c,
		})
	}
	p.mPending.Set(int64(p.pending.Len()))
}

// promoteHeld is a token visit's intake from the two holding queues, run
// once per visit (handleToken) before the visit sends, so what it admits
// queues behind the urgent work already there. Lazy messages leave in
// submission order once a Tick old: withdrawn ones are dropped, the rest
// admitted (a younger one keeps the ones behind it waiting; they are all
// younger still). Bulk messages are admitted up to the visit's quota, and
// only while the sending queue is shorter than one visit can drain, so a
// quota larger than the ring's flow-control window cannot build a backlog
// in front of later urgent messages.
func (p *Processor) promoteHeld(now time.Time) {
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
	for n := 0; p.bulk.Len() > 0 && p.pending.Len() < p.cfg.MaxPerToken &&
		(p.cfg.BulkPerVisit <= 0 || n < p.cfg.BulkPerVisit); n++ {
		m, _ := p.bulk.Pop()
		p.nBulkProm.Add(1)
		p.admit(m)
	}
	if p.bulk.Len() > 0 {
		p.nBulkStalls.Add(1)
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
		p.handleForm(m, now)
	case *announceMsg:
		p.handleAnnounce(m, now)
	case *hurryMsg:
		p.handleHurry(m, now)
	}
}

// kick gets the token to a freshly enqueued submission: it sequences from
// a token resting here, wakes one parked here, or nudges one held
// elsewhere. Lazy and background traffic do none of that: they ride the
// next (possibly paced) token visit, so neither insurance replies nor
// audit marks keep a quiescent ring spinning. Bulk waits for token visits,
// so it wakes and nudges the token like urgent work does.
func (p *Processor) kick(c class, now time.Time) {
	if p.state != stateOperational || c == classLazy || c == classBackground {
		return
	}
	if p.parkedToken != nil {
		if p.resting != "" && c == classUrgent && now.Before(p.parkedUntil) {
			// The token rests here: sequence from it at once and keep it.
			// The rest's deadline stands, so housekeeping still gets its
			// rotation once per Tick however busy this member is.
			if _, fgSent := p.sendPending(p.parkedToken); fgSent > 0 {
				p.lastActivityAt = now
			}
			// A reply hold lasts while one is owed, or on as a sole sender's rest.
			if p.pending.Len() == 0 && (p.resting == obs.RestSoleSender || p.owed > 0 || p.soleSenderHere(now)) {
				return
			}
		}
		// Wake our own paced token immediately so enqueueing does not
		// cost a tick of latency; a rest ends when its deadline has
		// passed, bulk arrives, one visit's window is full or its reply is out.
		p.releaseParked(now)
		return
	}
	p.wantToken = true
	p.maybeNudge(now)
}

// maybeNudge broadcasts a hurry if work is waiting for the token here and
// the token may be held somewhere. One nudge per token departure is all
// that can help — it releases the token wherever it is parked or resting
// and un-paces every hop back to this member. A token that left with
// IdleHops == 0 cannot be parked before it returns (the member that
// completes the idle rotation is this one), and it rests only at a member
// that has been the ring's only sender for idleGrace; when neither can be
// the case the token is on its way and a nudge would be one more frame in
// front of it. kick calls this at enqueue; deliverMsg calls it again, as
// the would-be nudger may learn that another member is the sole sender
// only from frames that arrive after it enqueued.
func (p *Processor) maybeNudge(now time.Time) {
	if !p.wantToken || !p.canNudge || !(p.leftIdle || p.restingElsewhere(now)) {
		return
	}
	p.canNudge = false
	p.hurried = true
	p.nHurrySent.Add(1)
	p.bcastMsg(&hurryMsg{Ring: p.ring, Origin: p.addr})
}

// restingElsewhere reports whether another member has been the ring's only
// data sender for idleGrace, the condition under which it keeps the token.
func (p *Processor) restingElsewhere(now time.Time) bool {
	return p.soleSender != "" && p.soleSender != p.addr &&
		now.Sub(p.soleSince) >= p.cfg.idleGrace()
}

// handleHurry reacts to a peer's hurry nudge: release a parked or resting
// token at once and let the next forward skip pacing and resting, so the
// token crosses the ring at wire speed until the nudging enqueuer is
// served. The flag lasts until this member's next forward, whether or not
// that forward would have held the token — a nudge that arrives while the
// token is still on its way here must keep it from resting on arrival.
func (p *Processor) handleHurry(m *hurryMsg, now time.Time) {
	if p.state != stateOperational || m.Ring != p.ring || m.Origin == p.addr {
		return
	}
	p.nHurryRecv.Add(1)
	p.hurried = true
	if p.parkedToken != nil {
		p.releaseParked(now)
	}
}

// --- operational phase ---

func (p *Processor) handleData(m *dataMsg, now time.Time) {
	if p.state != stateOperational {
		return
	}
	if m.Ring != p.ring {
		// Stale traffic from a superseded ring (in flight across a
		// reformation) or genuinely foreign traffic. Either way ignore it:
		// lineage peers recover real gaps by retransmission, and foreign
		// rings are discovered through the announce beacon, which carries
		// enough identity to distinguish stale from foreign.
		return
	}
	if m.Seq <= p.gcLow || m.Seq <= p.myAru {
		return // already garbage-collected or delivered
	}
	if _, dup := p.store[m.Seq]; dup {
		return
	}
	p.store[m.Seq] = m
	delete(p.miss, m.Seq)
	if m.Seq > p.seqHigh {
		p.seqHigh = m.Seq
	}
	p.advanceAru()
}

// handleAnnounce reacts to a ring beacon: a beacon naming a ring we are
// not part of means a foreign ring shares the segment (healed partition),
// so we reform to merge — unless the beacon is recognizably stale (its
// representative is one of our members and its epoch is not newer).
func (p *Processor) handleAnnounce(m *announceMsg, now time.Time) {
	if m.Ring.Epoch > p.maxEpoch {
		// Gatherers learn the current epoch from beacons so their joins
		// are not dismissed as stale.
		p.maxEpoch = m.Ring.Epoch
	}
	if p.state != stateOperational || m.Ring == p.ring {
		return
	}
	if slices.Contains(p.members, m.Ring.Rep) && m.Ring.Epoch <= p.ring.Epoch {
		return // stale beacon from one of our own earlier rings
	}
	p.enterGather(now, "foreign-ring")
}

func (p *Processor) handleToken(tok *tokenMsg, now time.Time) {
	if p.state != stateOperational || tok.Ring != p.ring {
		return
	}
	if tok.Round <= p.round {
		return // duplicate from token retransmission
	}
	if p.lastSentToken != nil && p.tokenResends == 0 {
		step := max(p.rotation/8, time.Microsecond)
		if now.Sub(p.lastSentAt) < p.rotation {
			step = -step
		}
		p.rotation = min(p.rotation+step, p.cfg.Tick)
	}
	prevVisit := p.lastTokenAt
	p.round = tok.Round
	p.lastTokenAt = now
	p.lastSentToken = nil
	p.tokenResends = 0

	if tok.Seq > p.seqHigh {
		p.seqHigh = tok.Seq
	}

	// 1. Serve retransmission requests we can satisfy.
	served := 0
	var unsatisfied []uint64
	for _, s := range tok.Rtr {
		if m, ok := p.store[s]; ok && len(m.Chunks) > 0 {
			re := *m
			re.Ring = p.ring // re-tag under the current ring
			p.bcastMsg(&re)
			p.nRetrans.Add(1)
			served++
		} else if s > p.gcLow {
			unsatisfied = append(unsatisfied, s)
		}
	}
	rtrDone := now
	if p.rotations != nil {
		rtrDone = time.Now()
	}

	// 2. Request what we are missing. Every visit on which a sequence
	// number is still missing counts against it, whether this member adds
	// the request or finds it already on the token: a request nobody can
	// serve rides the token for good, and counting only fresh additions
	// would leave it one short of the threshold forever — delivery wedged
	// behind a frame that died with its sender.
	rtr := unsatisfied
	have := make(map[uint64]bool, len(rtr))
	for _, s := range rtr {
		have[s] = true
	}
	for s := p.myAru + 1; s <= tok.Seq; s++ {
		if _, ok := p.store[s]; ok {
			continue
		}
		if !have[s] {
			if len(rtr) >= maxRtrPerToken {
				break
			}
			rtr = append(rtr, s)
		}
		p.miss[s]++
		if p.miss[s] > missThreshold {
			// No live member holds this message: skip it with a chunkless
			// tombstone so delivery can proceed (see package doc). The
			// request stays on the token for the members still counting.
			p.store[s] = &dataMsg{Ring: p.ring, Seq: s}
			delete(p.miss, s)
			p.nTombstones.Add(1)
		}
	}
	tok.Rtr = rtr
	p.advanceAru()

	// 3. Let held messages in, then multicast pending chunks while we
	// hold the token.
	p.wantToken = false
	p.promoteHeld(now)
	pendingBefore := p.pending.Len()
	owedBefore := p.ownOwed
	sent, fgSent := p.sendPending(tok)
	// Requests sequenced from a held token never extend the hold.
	p.owed, p.owedAt = int(p.ownOwed-owedBefore), now

	// Token idling: IdleHops counts consecutive hops on which no holder
	// did foreground work — the ring-wide idleness signal the adaptive
	// pacer (paceTicks) combines with the local idleGrace window.
	// Background chunks (audit marks) ride the token without resetting
	// the counter, so a quiescent ring stays paced across audit epochs.
	if served > 0 || fgSent > 0 || len(tok.Rtr) > 0 {
		tok.IdleHops = 0
		p.lastActivityAt = now
	} else if tok.IdleHops < idleHopsCap {
		tok.IdleHops++
	}

	// 4. Aggregate aru; a completed rotation fixes the GC point.
	if tok.AruSetter == "" || tok.AruSetter == p.addr {
		if tok.AruSetter == p.addr {
			tok.GCSeq = tok.Aru
			p.nRotations.Add(1)
		}
		tok.Aru = p.myAru
		tok.AruSetter = p.addr
	} else if p.myAru < tok.Aru {
		tok.Aru = p.myAru
	}

	// 5. Garbage-collect messages everyone has.
	if tok.GCSeq > p.gcLow {
		for s := p.gcLow + 1; s <= tok.GCSeq; s++ {
			delete(p.store, s)
		}
		p.gcLow = tok.GCSeq
	}

	// 6. Forward the token, then profile the visit (the forward decides
	// the pacing state the sample records).
	idleHops := tok.IdleHops
	var end time.Time
	if p.rotations != nil {
		end = time.Now()
	}
	p.forwardToken(tok, now, fgSent)
	if p.rotations != nil {
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
			Paced:         p.lastPaceTicks > 0,
			PaceTicks:     p.lastPaceTicks,
			Resting:       p.resting,
			BulkWaiting:   p.bulk.Len(),
		}
		if !prevVisit.IsZero() {
			sample.IntervalUs = float64(now.Sub(prevVisit).Nanoseconds()) / 1e3
			p.mTokenInterval.ObserveDuration(now.Sub(prevVisit))
		}
		p.mTokenHold.ObserveDuration(end.Sub(now))
		p.rotations.Record(sample)
	}
}

// Rotations returns up to max most recent token-rotation profiler
// samples, oldest first (nil when profiling is disabled).
func (p *Processor) Rotations(max int) []obs.TokenRotation {
	return p.rotations.Last(max)
}

// sendPending multicasts queued chunks, each frame under the token's next
// sequence number, bounded by MaxPerToken chunks. It returns how many
// chunks were sent and how many of those were foreground (non-background)
// — the count that feeds the idle pacer. Consecutive sub-MTU chunks — possibly belonging
// to different application messages — share one frame and one sequence
// number (fragments of large messages still fill whole frames; packing
// recovers the waste on the sub-MTU tail); the conservative
// wireCost bound keeps each frame within the MTU without a trial encode.
// Messages their sender withdrew are dropped here, whole, instead of being
// sequenced (dropWithdrawn).
func (p *Processor) sendPending(tok *tokenMsg) (sent, fgSent int) {
	mtu := p.tr.MTU()
	queued := p.pending.Len()
	for sent < p.cfg.MaxPerToken {
		p.dropWithdrawn()
		first, ok := p.pending.Pop()
		if !ok {
			break
		}
		sent++
		frame := &dataMsg{Chunks: []chunk{first}}
		size := packedFrameOverhead + len(p.ring.Rep) + first.wireCost()
		for sent < p.cfg.MaxPerToken {
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
		p.store[frame.Seq] = frame
		if frame.Seq > p.seqHigh {
			p.seqHigh = frame.Seq
		}
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
		p.advanceAru()
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
// sent. The token leaves in one of three states: forwarded at wire speed,
// paced (parked for some ticks because the whole ring is idle), or resting
// (kept, because this member is the only one with anything to say).
func (p *Processor) forwardToken(tok *tokenMsg, now time.Time, fgSent int) {
	tok.Round++
	p.lastPaceTicks = 0
	succ := p.successor()
	if succ == p.addr {
		// Single-member ring: drain everything pending, then pace the
		// self-rotation (wire speed would be a hot loop).
		for p.pending.Len() > 0 {
			p.sendPending(tok)
		}
		p.park(tok, now, max(1, p.paceTicks(tok, now)))
		return
	}
	if why := p.mayRest(tok, now, fgSent); why != "" {
		// Forwarding would send the token round past members with nothing
		// to send while this member's next message waits for it to come
		// back. Keep it: kick sequences from it directly. The deadline is
		// set once, here, so aru and garbage collection, background and
		// lazy traffic and the peers' token-loss clocks all still advance
		// once per Tick.
		p.parkedToken = tok
		p.parkedUntil = now.Add(p.cfg.Tick)
		p.resting = why
		if why == obs.RestReplyOwed {
			p.nHolds.Add(1)
		} else {
			p.nRests.Add(1)
		}
		return
	}
	if ticks := p.paceTicks(tok, now); ticks > 0 {
		p.park(tok, now, ticks)
		return
	}
	p.transmitToken(tok, succ, now)
}

// mayRest decides whether a visit ends with the token staying here, and
// names why (empty: it moves on). Either way this member sent foreground
// data on the visit and has nothing left over, nobody has nudged since its
// last forward, no retransmission is requested and no bulk is waiting. Then
// it stays on either piece of evidence that its next message is the ring's
// next message: it has been the only data sender for idleGrace, or the
// visit sequenced a request whose urgent reply this member itself submits
// (Delivery.ReplyOwed), which would otherwise wait a whole rotation for the
// token just let go. Such a hold ends when the last owed reply is out (kick)
// and pays while replies are ready within that rotation: a later one, or none
// by the deadline, disarms it until a reply is prompt again (see rotation).
func (p *Processor) mayRest(tok *tokenMsg, now time.Time, fgSent int) string {
	switch {
	case fgSent == 0 || p.hurried ||
		p.pending.Len() > 0 || p.bulk.Len() > 0 || len(tok.Rtr) > 0:
		return ""
	case p.soleSenderHere(now):
		return obs.RestSoleSender
	case p.owed > 0 && !p.holdDisarmed:
		return obs.RestReplyOwed
	}
	return ""
}

// soleSenderHere: this member has been the only data sender for idleGrace.
func (p *Processor) soleSenderHere(now time.Time) bool {
	return p.soleSender == p.addr && now.Sub(p.soleSince) >= p.cfg.idleGrace()
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
func (p *Processor) paceTicks(tok *tokenMsg, now time.Time) int {
	members := len(p.members)
	if int(tok.IdleHops) < members {
		return 0
	}
	if p.hurried || p.bulk.Len() > 0 {
		return 0 // a nudged token, or one bulk is waiting for, crosses at wire speed
	}
	if now.Sub(p.lastActivityAt) < p.cfg.idleGrace() {
		return 1
	}
	ticks := 1
	for r := int(tok.IdleHops)/members - 1; r > 0 && ticks < maxPaceTicks; r-- {
		ticks <<= 1
	}
	if budget := int(p.cfg.TokenLossTimeout / 4 / (time.Duration(members) * p.cfg.Tick)); budget < ticks {
		ticks = max(budget, 1)
	}
	return ticks
}

// park holds the token for the given number of ticks; onTick releases it
// once parkedUntil passes (or sooner, on enqueue or hurry).
func (p *Processor) park(tok *tokenMsg, now time.Time, ticks int) {
	p.parkedToken = tok
	p.parkedUntil = now.Add(time.Duration(ticks-1) * p.cfg.Tick)
	p.lastPaceTicks = ticks
	p.nPacedHops.Add(1)
}

func (p *Processor) transmitToken(tok *tokenMsg, succ string, now time.Time) {
	p.hurried = false
	p.canNudge = true
	p.leftIdle = tok.IdleHops > 0
	p.lastSentToken = tok
	p.lastSentAt = now
	p.tokenResends = 0
	p.sendMsg(succ, tok)
}

// releaseParked resumes a paced or resting token: any newly-enqueued
// chunks are sent first, then the token moves on (a single-member ring
// re-handles it instead). Held messages stay where they are — they enter
// at token visits only, which is what makes the bulk quota "per visit" —
// but bulk waiting here is foreground work, so the token leaves marked
// busy and no member paces it on its way round and back.
func (p *Processor) releaseParked(now time.Time) {
	tok := p.parkedToken
	p.parkedToken = nil
	if p.resting == obs.RestReplyOwed && p.owed > 0 && !now.Before(p.parkedUntil) {
		p.nHoldTimeo.Add(1)
		p.holdDisarmed = true
	}
	p.resting = ""
	if p.state != stateOperational || tok.Ring != p.ring {
		return // ring changed while parked; the new ring mints a new token
	}
	if p.bulk.Len() > 0 {
		tok.IdleHops = 0
	}
	if p.pending.Len() > 0 {
		if _, fgSent := p.sendPending(tok); fgSent > 0 {
			tok.IdleHops = 0
			p.lastActivityAt = now
		}
	}
	succ := p.successor()
	if succ == p.addr {
		p.handleToken(tok, now)
		return
	}
	p.transmitToken(tok, succ, now)
}

func (p *Processor) successor() string {
	i := slices.Index(p.members, p.addr)
	if i < 0 {
		return p.addr
	}
	return p.members[(i+1)%len(p.members)]
}

// pendingView is a view change waiting for its stream position.
type pendingView struct {
	at   uint64
	view Membership
}

// advanceAru delivers every message that has become contiguous, releasing
// pending view changes at their stream positions.
func (p *Processor) advanceAru() {
	p.releaseViews()
	for {
		m, ok := p.store[p.myAru+1]
		if !ok {
			break
		}
		p.myAru++
		delete(p.miss, p.myAru)
		p.deliverMsg(m)
		p.releaseViews()
	}
}

func (p *Processor) releaseViews() {
	for len(p.pendingViews) > 0 && p.myAru >= p.pendingViews[0].at {
		pv := p.pendingViews[0]
		p.pendingViews = p.pendingViews[1:]
		v := pv.view
		if !v.Reset {
			// Partial reassemblies from members that did not survive end
			// here, at the view's position in the stream — not when the
			// ring was installed: the old ring's last frames may still be
			// on their way to this member, and one that already had them
			// delivered the message they complete.
			for sender := range p.reasm {
				if !slices.Contains(v.Members, sender) {
					delete(p.reasm, sender)
				}
			}
		}
		p.nViews.Add(1)
		p.views.In(v)
		p.deliveries.In(Delivery{Seq: pv.at, View: &v})
	}
}

// deliverMsg delivers one data frame: every chunk it carries, in order. A
// chunkless frame is the tombstone for an unrecoverable sequence number.
// Chunks packed into one frame share its sequence number, so consecutive
// Deliveries may carry equal Seq values.
func (p *Processor) deliverMsg(m *dataMsg) {
	if len(m.Chunks) > 0 {
		// The sole-sender clock: a frame from anyone but the current sole
		// sender restarts it. A frame that continues a peer's run is when
		// a member waiting for the token may find out that the peer has
		// been alone long enough to be resting on it.
		if sender := m.Chunks[0].Sender; sender != p.soleSender {
			p.soleSender, p.soleSince = sender, time.Now()
		} else if p.wantToken {
			p.maybeNudge(time.Now())
		}
	}
	for i := range m.Chunks {
		p.deliverChunk(m.Seq, &m.Chunks[i])
	}
}

func (p *Processor) deliverChunk(seq uint64, c *chunk) {
	if c.FragTotal == 0 {
		return // malformed chunk; a wire frame never carries one
	}
	if c.FragTotal == 1 {
		p.observeOwn(c)
		p.emit(Delivery{Seq: seq, Sender: c.Sender, Payload: c.Payload})
		return
	}
	key := c.Sender
	pa := p.reasm[key]
	if c.FragIdx == 0 {
		pa = &partial{}
		p.reasm[key] = pa
	}
	if pa == nil || pa.broken || pa.next != c.FragIdx {
		// A fragment whose predecessors were lost (tombstoned): the whole
		// message is undeliverable; drop the remainder quietly.
		if pa != nil {
			pa.broken = true
		}
		if c.FragIdx == c.FragTotal-1 {
			delete(p.reasm, key)
		}
		return
	}
	pa.frags = append(pa.frags, c.Payload)
	pa.next++
	if pa.next == c.FragTotal {
		delete(p.reasm, key)
		p.observeOwn(c)
		var size int
		for _, f := range pa.frags {
			size += len(f)
		}
		joined := make([]byte, 0, size)
		for _, f := range pa.frags {
			joined = append(joined, f...)
		}
		p.emit(Delivery{Seq: seq, Sender: c.Sender, Payload: joined})
	}
}

func (p *Processor) emit(d Delivery) {
	p.nDeliveries.Add(1)
	if p.cfg.Ordered != nil {
		p.cfg.Ordered(&d)
		if d.ReplyOwed {
			p.ownOwed++
		}
	}
	p.deliveries.In(d)
}

// observeOwn records the submit→delivery latency of a locally originated
// message, at the delivery of its last fragment.
func (p *Processor) observeOwn(c *chunk) {
	if c.Sender != p.addr {
		return
	}
	if meta, ok := p.sendTimes[c.MsgID]; ok {
		delete(p.sendTimes, c.MsgID)
		p.mLatency.ObserveDuration(time.Since(meta.at))
	}
}

// --- gather phase (membership) ---

// enterGather moves the processor into the membership gather phase.
// reason names the trigger for the flight recorder ("" for the silent
// initial gather at startup).
func (p *Processor) enterGather(now time.Time, reason string) {
	if reason != "" && p.cfg.Recorder != nil {
		typ := obs.EventReform
		if reason == "token-loss" {
			typ = obs.EventTokenLoss
		}
		p.cfg.Recorder.Record(obs.Event{
			Type: typ, Seq: p.myAru, Detail: reason,
		})
	}
	if p.state == stateOperational {
		p.prevRing = p.ring
	}
	p.state = stateGather
	p.joinInfo = make(map[string]joinRecord)
	p.stableSince = now
	p.aliveKey = ""
	p.lastSentToken = nil
	p.parkedToken = nil
	p.resting = ""
	p.hurried = false
	p.canNudge = false
	p.sendJoin(now)
}

func (p *Processor) sendJoin(now time.Time) {
	p.lastJoinSent = now
	j := &joinMsg{
		Sender:   p.addr,
		Alive:    p.aliveSet(now),
		PrevRing: p.prevRing,
		HighSeq:  p.seqHigh,
		MaxEpoch: p.maxEpoch,
	}
	p.bcastMsg(j)
}

func (p *Processor) aliveSet(now time.Time) []string {
	alive := []string{p.addr}
	for a, rec := range p.joinInfo {
		if now.Sub(rec.seenAt) <= joinExpiryIntervals*p.cfg.JoinInterval && a != p.addr {
			alive = append(alive, a)
		}
	}
	slices.Sort(alive)
	return alive
}

func (p *Processor) handleJoin(j *joinMsg, now time.Time) {
	if j.MaxEpoch > p.maxEpoch {
		p.maxEpoch = j.MaxEpoch
	}
	if j.Sender == p.addr {
		return
	}
	if p.state == stateOperational {
		if j.MaxEpoch < p.ring.Epoch {
			// A stale join, sent before our ring formed (typically one in
			// flight from the gather that produced this very ring). Do not
			// reform; instead tell the sender which ring is current so a
			// genuine joiner can re-join with a fresh epoch.
			ann := announceMsg{Ring: p.ring}
			p.sendMsg(j.Sender, &ann)
			return
		}
		// Someone with current knowledge is rejoining or merging: reform.
		p.enterGather(now, "peer-join")
	}
	p.joinInfo[j.Sender] = joinRecord{msg: j, seenAt: now}
	if j.HighSeq > 0 && j.PrevRing == p.prevRing && j.HighSeq > p.seqHigh {
		// A lineage peer knows of more messages than we do.
		p.seqHigh = j.HighSeq
	}
}

func (p *Processor) handleForm(f *formMsg, now time.Time) {
	if f.Ring.Epoch > p.maxEpoch {
		p.maxEpoch = f.Ring.Epoch
	}
	if !slices.Contains(f.Members, p.addr) {
		return
	}
	if p.state == stateOperational && f.Ring.Epoch <= p.ring.Epoch {
		return
	}
	if f.Ring.Rep == p.addr && p.state == stateOperational && f.Ring == p.ring {
		return // our own broadcast echoed back
	}
	p.installRing(f, now)
}

func (p *Processor) installRing(f *formMsg, now time.Time) {
	continued := p.prevRing == f.Lineage && !f.Lineage.isZero()
	// A brand-new lineage (everyone fresh, epoch 1 with zero lineage)
	// also "continues" trivially from sequence 0.
	if f.Lineage.isZero() && p.prevRing.isZero() {
		continued = true
	}
	p.state = stateOperational
	p.ring = f.Ring
	p.prevRing = f.Ring
	p.members = slices.Clone(f.Members)
	slices.Sort(p.members)
	p.round = 0
	p.lastTokenAt = now
	p.lastSentToken = nil
	p.parkedToken = nil
	p.resting = ""
	p.rotation = p.cfg.Tick
	p.lastAnnounceAt = now
	p.lastActivityAt = now
	p.hurried = false
	p.canNudge = false
	p.leftIdle = false
	p.wantToken = false
	p.soleSender = ""
	p.lastPaceTicks = 0
	p.miss = make(map[uint64]int)
	if f.Ring.Epoch > p.maxEpoch {
		p.maxEpoch = f.Ring.Epoch
	}
	reset := !continued
	if reset {
		p.store = make(map[uint64]*dataMsg)
		p.reasm = make(map[string]*partial)
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
		p.myAru = f.StartSeq
		p.gcLow = f.StartSeq
		p.seqHigh = f.StartSeq
		// Views queued for positions in the abandoned sequence space are
		// meaningless now.
		p.pendingViews = nil
	} else {
		if f.StartSeq > p.seqHigh {
			p.seqHigh = f.StartSeq
		}
	}
	p.pendingViews = append(p.pendingViews, pendingView{
		at: f.StartSeq,
		view: Membership{
			Epoch:    f.Ring.Epoch,
			Rep:      f.Ring.Rep,
			Members:  slices.Clone(p.members),
			Reset:    reset,
			StartSeq: f.StartSeq,
		},
	})
	p.releaseViews()
	if f.Ring.Rep == p.addr {
		// The representative injects the first token.
		tok := &tokenMsg{
			Ring:      f.Ring,
			Round:     0,
			Seq:       f.StartSeq,
			Aru:       p.myAru,
			AruSetter: p.addr,
			GCSeq:     p.gcLow,
		}
		p.forwardToken(tok, now, 0)
	}
}

func (p *Processor) tryFormRing(now time.Time) {
	alive := p.aliveSet(now)
	key := strings.Join(alive, ",")
	if key != p.aliveKey {
		p.aliveKey = key
		p.stableSince = now
		return
	}
	if now.Sub(p.stableSince) < p.cfg.StableFor {
		return
	}
	if alive[0] != p.addr {
		return // not the representative
	}
	// Choose the continuation lineage: our own previous ring. StartSeq is
	// the highest sequence known among lineage members.
	lineage := p.prevRing
	startSeq := p.seqHigh
	for _, a := range alive {
		rec, ok := p.joinInfo[a]
		if !ok {
			continue
		}
		if rec.msg.PrevRing == lineage && rec.msg.HighSeq > startSeq {
			startSeq = rec.msg.HighSeq
		}
	}
	p.maxEpoch++
	f := &formMsg{
		Ring:     ringIdentity{Epoch: p.maxEpoch, Rep: p.addr},
		Members:  alive,
		Lineage:  lineage,
		StartSeq: startSeq,
	}
	p.bcastMsg(f)
	p.installRing(f, now)
}

// --- timers ---

func (p *Processor) onTick(now time.Time) {
	switch p.state {
	case stateGather:
		if now.Sub(p.lastJoinSent) >= p.cfg.JoinInterval {
			p.sendJoin(now)
		}
		p.tryFormRing(now)
	case stateOperational:
		// The representative's beacon must fire even while the token is
		// parked: a long-paced ring (idle single member, deep backoff)
		// still has to be discoverable for partition merges.
		if p.ring.Rep == p.addr && now.Sub(p.lastAnnounceAt) >= announceIntervals*p.cfg.JoinInterval {
			p.lastAnnounceAt = now
			ann := announceMsg{Ring: p.ring}
			p.bcastMsg(&ann)
		}
		if p.parkedToken != nil {
			if !now.Before(p.parkedUntil) {
				p.releaseParked(now)
			}
			return
		}
		if now.Sub(p.lastTokenAt) > p.cfg.TokenLossTimeout {
			p.enterGather(now, "token-loss")
			return
		}
		if p.lastSentToken != nil && now.Sub(p.lastSentAt) >= p.cfg.TokenResend && p.tokenResends < 3 {
			p.tokenResends++
			p.lastSentAt = now
			p.sendMsg(p.successor(), p.lastSentToken)
		}
	}
}

// bcastMsg encodes m into a pooled buffer, broadcasts it, and returns the
// buffer to the pool — legal because Transport implementations must not
// retain the payload after Broadcast returns (see Transport).
func (p *Processor) bcastMsg(m wireMsg) {
	e := cdr.AcquireEncoder(cdr.BigEndian)
	m.encodeTo(e)
	buf := e.Bytes()
	p.mPktsOut.Inc()
	p.mBytesOut.Add(uint64(len(buf)))
	_ = p.tr.Broadcast(buf)
	cdr.ReleaseEncoder(e)
}

// sendMsg is bcastMsg for unicast.
func (p *Processor) sendMsg(to string, m wireMsg) {
	e := cdr.AcquireEncoder(cdr.BigEndian)
	m.encodeTo(e)
	buf := e.Bytes()
	p.mPktsOut.Inc()
	p.mBytesOut.Add(uint64(len(buf)))
	_ = p.tr.Send(to, buf)
	cdr.ReleaseEncoder(e)
}
