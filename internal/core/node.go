// Package core implements the Eternal node: one processor's worth of the
// Eternal system (paper Figure 1). A Node owns a totem group-communication
// endpoint, the Replication Mechanisms (envelope routing, duplicate
// suppression, group metadata), the Recovery Mechanisms (state transfer,
// logging, enqueue-while-recovering), the socket-level Interceptor for
// locally attached clients, and the Replication/Resource Manager logic
// that maintains the configured numbers of replicas.
//
// Every node evaluates the same deterministic state machine over the same
// totally-ordered delivery stream, so group metadata, primary election,
// donor selection and recovery placement agree everywhere without extra
// rounds of coordination.
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/ftcorba"
	"eternal/internal/interceptor"
	"eternal/internal/ior"
	"eternal/internal/obs"
	"eternal/internal/orb"
	"eternal/internal/replication"
	"eternal/internal/totem"
)

// GroupPort is the port number in the virtual endpoints of replicated
// object groups (the host is the group name; the Interceptor diverts it).
const GroupPort uint16 = 13570

// Errors returned by Node methods.
var (
	ErrNodeStopped = errors.New("core: node stopped")
	ErrTimedOut    = errors.New("core: timed out")
	ErrNoSuchGroup = errors.New("core: no such group")
)

// Config configures a Node.
type Config struct {
	// Transport is the node's group-communication endpoint.
	Transport totem.Transport
	// Totem tunes the multicast protocol; Transport inside it is ignored.
	Totem totem.Config
	// ManagerTick is the period of the resource-manager sweep and
	// checkpoint scheduler (default 20ms).
	ManagerTick time.Duration
	// Logger receives structured mechanism events (group lifecycle, state
	// transfers, faults). Nil disables logging.
	Logger *slog.Logger
	// Metrics receives the node's metrics (and the totem processor's). Nil
	// creates a private registry, retrievable via Node.Metrics(). Sharing a
	// registry between nodes of one process merges their totem metrics.
	Metrics *obs.Registry
	// AuditInterval is the live consistency audit's period: each group's
	// primary multicasts a KAudit mark at this interval, every
	// instance-bearing member digests its state at the mark's agreed
	// position, and every node's collector matches the digests epoch by
	// epoch. Zero selects the 1s default; negative disables the audit
	// entirely.
	AuditInterval time.Duration

	// stateChunkBytes bounds one state-transfer chunk's payload; 0 means
	// recovery.DefaultChunkBytes (~32 KiB). Tests shrink it to stream a
	// small state as many chunks.
	stateChunkBytes int
}

// Node is one Eternal processor.
type Node struct {
	addr string
	cfg  Config
	proc *totem.Processor

	// factoriesMu guards factories (registered before/after start).
	factoriesMu sync.Mutex
	factories   map[string]ftcorba.Factory

	// Loop-owned state (only the delivery loop touches these).
	table      *replication.Table
	view       totem.Membership // the last view delivered; its Members are the live processors
	hosts      map[string]*replicaHost
	primaryOf  map[string]bool         // group -> this node believes it is primary
	pendingAdd map[string]bool         // group -> KAddMember multicast, not yet delivered
	inXfers    map[string]*inboundXfer // by donor: the transfer its bulk lane has open
	synced     bool
	// Metadata synchronization, while !synced (see handleUnsynced).
	syncSeen []string         // members whose KSyncRequest in this view has been delivered
	syncSeq  uint64           // the position of this node's own, 0 until it is
	syncBuf  []totem.Delivery // everything else delivered since the view
	syncFrom int              // how much of syncBuf came before the own request

	// calls lets API goroutines run a closure on the loop for a
	// consistent read of loop-owned state.
	calls chan func()

	// groupsMu guards the read-mostly group view used by API goroutines
	// (dialers, IOR minting).
	groupsMu sync.RWMutex
	groupSet map[string]*replication.GroupSpec

	clientsMu sync.Mutex
	clients   map[string]*clientEntity

	waitersMu sync.Mutex
	waiters   map[string][]chan struct{}
	signaled  map[string]bool

	xferCounter atomic.Uint64

	// sendMu keeps each outbound transfer's chunks and manifest contiguous
	// in the bulk lane (see sendChunked).
	sendMu sync.Mutex
	// chunkHook is a test-only received-chunk filter (see setChunkHook).
	chunkHook atomic.Value

	// replyMarks is the per-connection high-water mark of ordered replies
	// behind sender-side duplicate-reply suppression.
	replyMarks *replyMarks

	// counters back the Stats surface.
	counters nodeCounters

	// Observability: the metrics registry, the flight recorder
	// (sequence-stamped membership/recovery/fault events; its "recovered"
	// events are the paper's Figure 6, live) and the per-invocation span
	// journal.
	metrics  *obs.Registry
	recorder *obs.Recorder
	spans    *obs.SpanRecorder
	audit    *obs.AuditCollector // nil when AuditInterval < 0
	// tracedReqs is the highest operation id ordered on each connection
	// (loop-owned): only the first ordered copy of an invocation marks its
	// span (see handleRequest).
	tracedReqs *replication.DupFilter
	// marksDue schedules the next audit and checkpoint mark per group this
	// node is primary of (loop-owned, like the table it follows; see
	// markDue).
	marksDue map[markKey]time.Time
	// lastSeq is the sequence number of the most recent totem delivery,
	// the anchor stamped onto local flight-recorder events.
	lastSeq atomic.Uint64

	// Latency instruments, registered once at Start.
	invocationHist   *obs.Histogram
	recoveryCapture  *obs.Histogram
	recoveryTransfer *obs.Histogram
	recoveryApply    *obs.Histogram
	recoveryReplay   *obs.Histogram
	recoveryTotal    *obs.Histogram
	dispatchDepth    *obs.Gauge

	stopOnce sync.Once
	stopCh   chan struct{}
	loopDone chan struct{}

	// Failure-injection knobs for the paper's §4.2 experiments.
	disableORBStateTransfer atomic.Bool
}

// Start creates a node and joins the group-communication domain.
func Start(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, errors.New("core: Config.Transport is required")
	}
	if cfg.ManagerTick <= 0 {
		cfg.ManagerTick = 20 * time.Millisecond
	}
	if cfg.AuditInterval == 0 {
		cfg.AuditInterval = time.Second
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	recorder := obs.NewRecorder(0, cfg.Transport.Addr())
	spans := obs.NewSpanRecorder(cfg.Transport.Addr(), 0)
	var audit *obs.AuditCollector
	if cfg.AuditInterval > 0 {
		audit = obs.NewAuditCollector()
	}
	tc := cfg.Totem
	tc.Transport = cfg.Transport
	tc.Metrics = metrics
	tc.Recorder = recorder
	tc.Spans = spans
	marks := newReplyMarks(cfg.Transport.Addr())
	tc.Ordered = marks.ordered
	proc, err := totem.Start(tc)
	if err != nil {
		return nil, err
	}
	n := &Node{
		addr:       cfg.Transport.Addr(),
		cfg:        cfg,
		proc:       proc,
		replyMarks: marks,
		recorder:   recorder,
		factories:  make(map[string]ftcorba.Factory),
		table:      replication.NewTable(),
		hosts:      make(map[string]*replicaHost),
		primaryOf:  make(map[string]bool),
		pendingAdd: make(map[string]bool),
		inXfers:    make(map[string]*inboundXfer),
		groupSet:   make(map[string]*replication.GroupSpec),
		clients:    make(map[string]*clientEntity),
		waiters:    make(map[string][]chan struct{}),
		signaled:   make(map[string]bool),
		calls:      make(chan func(), 16),
		metrics:    metrics,
		spans:      spans,
		audit:      audit,
		tracedReqs: replication.NewDupFilter(),
		marksDue:   make(map[markKey]time.Time),
		stopCh:     make(chan struct{}),
		loopDone:   make(chan struct{}),
	}
	recorder.SetSeqSource(n.lastSeq.Load)
	n.counters = newNodeCounters(metrics)
	registerProcessMetrics(metrics)
	metrics.CounterFunc("eternal_state_chunk_stalls_total",
		"token visits that left state chunks waiting in the bulk lane behind the per-visit quota",
		func() float64 { return float64(proc.Stats().BulkStalls) })
	metrics.CounterFunc("eternal_envelopes_rejected_total",
		"ordered messages dropped because they did not decode as an envelope (another envelope layout, or corruption)",
		func() float64 { return float64(marks.rejected.Load()) })
	metrics.CounterFunc("eternal_events_recorded_total",
		"flight-recorder events recorded",
		func() float64 { return float64(recorder.Total()) })
	metrics.CounterFunc("eternal_events_dropped_total",
		"flight-recorder events evicted to bound the ring",
		func() float64 { return float64(recorder.Dropped()) })
	metrics.CounterFunc("eternal_spans_recorded_total",
		"invocation spans journalled",
		func() float64 { return float64(spans.Total()) })
	metrics.CounterFunc("eternal_spans_dropped_total",
		"journalled spans evicted to bound the span ring",
		func() float64 { return float64(spans.Dropped()) })
	metrics.CounterFunc("eternal_audit_observations_total",
		"consistency-audit digests collected (all members, via the total order)",
		func() float64 { return float64(audit.Totals().Observations) })
	metrics.GaugeFunc("eternal_audit_last_epoch",
		"most recent consistency-audit epoch observed",
		func() float64 { return float64(audit.Totals().LastEpoch) })
	metrics.CounterFunc("eternal_audit_divergence_alarms_total",
		"audit divergence alarms: digest mismatch within one epoch",
		func() float64 { return float64(audit.Totals().Divergences) })
	metrics.CounterFunc("eternal_audit_lag_alarms_total",
		"audit lag alarms: member silent in more than three completed epochs",
		func() float64 { return float64(audit.Totals().Lags) })
	n.invocationHist = metrics.Histogram("eternal_invocation_seconds",
		"end-to-end invocation latency: interception to reply delivery", nil)
	n.recoveryCapture = metrics.Histogram("eternal_recovery_capture_seconds",
		"get_state() retrieval duration on the donor (recovery transfers only)", nil)
	n.recoveryTransfer = metrics.Histogram("eternal_recovery_transfer_seconds",
		"set_state bundle multicast transfer duration seen by the recovering node", nil)
	n.recoveryApply = metrics.Histogram("eternal_recovery_apply_seconds",
		"set_state() application duration on the recovering node", nil)
	n.recoveryReplay = metrics.Histogram("eternal_recovery_replay_seconds",
		"replay duration of messages enqueued while recovering", nil)
	n.recoveryTotal = metrics.Histogram("eternal_recovery_total_seconds",
		"synchronization point to reinstatement, the paper's Figure 6 measure", nil)
	n.dispatchDepth = metrics.Gauge("eternal_dispatch_queue_depth",
		"items queued across this node's replica dispatchers")
	go n.loop()
	return n, nil
}

// Addr returns the node's address.
func (n *Node) Addr() string { return n.addr }

// Stop shuts the node down: its replicas die with it, and the other nodes
// observe the silence as a processor failure.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stopCh)
		n.proc.Stop()
	})
	<-n.loopDone
}

// RegisterFactory installs the replica factory for an object type. Every
// node that may host a replica of that type must register it (the
// FT-CORBA GenericFactory deployed alongside the application).
func (n *Node) RegisterFactory(typeName string, f ftcorba.Factory) {
	n.factoriesMu.Lock()
	defer n.factoriesMu.Unlock()
	n.factories[typeName] = f
}

func (n *Node) factory(typeName string) (ftcorba.Factory, bool) {
	n.factoriesMu.Lock()
	defer n.factoriesMu.Unlock()
	f, ok := n.factories[typeName]
	return f, ok
}

// SetORBStateTransfer toggles the transfer of ORB/POA-level state during
// recovery. Disabling it reproduces the paper's Figure 4 and §4.2.2
// failure modes (experiments E4/E5); it is on by default.
func (n *Node) SetORBStateTransfer(enabled bool) {
	n.disableORBStateTransfer.Store(!enabled)
}

// --- group metadata for API goroutines ---

func (n *Node) isGroup(name string) bool {
	n.groupsMu.RLock()
	defer n.groupsMu.RUnlock()
	_, ok := n.groupSet[name]
	return ok
}

func (n *Node) groupTypeName(name string) string {
	n.groupsMu.RLock()
	defer n.groupsMu.RUnlock()
	if s, ok := n.groupSet[name]; ok {
		return s.TypeName
	}
	return ""
}

// GroupIOR mints the Interoperable Object Group Reference for a group:
// one virtual IIOP profile per configured member, each carrying the
// TAG_FT_GROUP component (FT-CORBA IOGR).
func (n *Node) GroupIOR(name string) (*ior.IOR, error) {
	n.groupsMu.RLock()
	spec, ok := n.groupSet[name]
	n.groupsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchGroup, name)
	}
	group := &ior.FTGroupInfo{FTDomainID: "eternal-go", GroupID: hashName(name), GroupVersion: 1}
	members := make([]ior.Member, 0, len(spec.Nodes))
	for i, node := range spec.Nodes {
		_ = node
		members = append(members, ior.Member{
			Host:      name, // virtual endpoint: the Interceptor routes by group name
			Port:      GroupPort,
			ObjectKey: []byte("root/" + name),
			Primary:   i == 0 && spec.Props.Style != ftcorba.Active,
		})
	}
	return ior.NewIOGR("IDL:eternal/"+spec.TypeName+":1.0", group, members), nil
}

// nextXfer generates a transfer id unique across the domain: the high
// half identifies the initiating node, the low half counts locally. Every
// capture marker (KAddMember, KCheckpoint) and its KStateManifest share
// one id space, so passive backups can pair markers with the checkpoints
// they produce.
func (n *Node) nextXfer() uint64 {
	return hashName(n.addr)<<32 | (n.xferCounter.Add(1) & 0xFFFFFFFF)
}

// recordRecovery files one completed recovery of a local replica: the
// recovered event carrying its per-phase timeline (capture is
// donor-measured and shipped in the bundle; transfer is the recovering
// node's wait minus capture), the recovery histograms, and a log line.
func (n *Node) recordRecovery(group string, xferID uint64, start time.Time, capture, transfer, apply, replay time.Duration, enqueued int) {
	end := time.Now()
	n.recoveryTransfer.ObserveDuration(transfer)
	n.recoveryApply.ObserveDuration(apply)
	n.recoveryReplay.ObserveDuration(replay)
	n.recoveryTotal.ObserveDuration(end.Sub(start))
	n.recorder.Record(obs.Event{
		At: end, Type: obs.EventRecovered, Group: group, Node: n.addr, XferID: xferID,
		Value: int64(enqueued),
		Phases: []obs.Phase{
			{Name: obs.PhaseCapture, Duration: capture},
			{Name: obs.PhaseTransfer, Duration: transfer},
			{Name: obs.PhaseApply, Duration: apply},
			{Name: obs.PhaseReplay, Duration: replay},
		},
	})
	n.logger().Info("replica recovered", "group", group, "xfer", xferID,
		"capture", capture, "transfer", transfer, "apply", apply,
		"replay", replay, "enqueued", enqueued, "total", end.Sub(start))
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// --- client attachment ---

// ClientORB returns an ORB whose connections are intercepted by this
// node's mechanisms on behalf of the named client entity: connections to
// replicated groups are diverted into the entity's egress proxies, anything
// else falls through to TCP. Replicas of a replicated client use their
// group name as the entity name on every node, which is how their
// duplicate invocations are paired up.
func (n *Node) ClientORB(entityName string, opts orb.Options) *orb.ORB {
	opts.Dialer = interceptor.New(n.isGroup, n.clientEntity(entityName).accept, orb.TCPDialer{})
	return orb.NewORB(opts)
}

func (n *Node) clientEntity(name string) *clientEntity {
	n.clientsMu.Lock()
	defer n.clientsMu.Unlock()
	if ce, ok := n.clients[name]; ok {
		return ce
	}
	ce := newClientEntity(n, name)
	n.clients[name] = ce
	return ce
}

func (n *Node) clientEntityIfExists(name string) *clientEntity {
	n.clientsMu.Lock()
	defer n.clientsMu.Unlock()
	return n.clients[name]
}

// --- administrative API (each call is a multicast + wait) ---

// CreateGroup deploys a replicated object group. It returns once this
// node has applied the creation (all nodes apply it at the same position
// in the total order).
func (n *Node) CreateGroup(spec replication.GroupSpec, timeout time.Duration) error {
	if err := spec.Props.Validate(); err != nil {
		return err
	}
	if len(spec.Nodes) != spec.Props.InitialReplicas {
		return fmt.Errorf("core: group %q: %d placement nodes for %d initial replicas",
			spec.Name, len(spec.Nodes), spec.Props.InitialReplicas)
	}
	ch := n.subscribe("create:" + spec.Name)
	n.multicast(&replication.Envelope{
		Kind:    replication.KCreateGroup,
		Group:   spec.Name,
		Payload: replication.EncodeSpec(&spec),
	})
	return n.await(ch, timeout)
}

// AwaitGroup blocks until this node has applied the group's creation.
// CreateGroup only waits for the creating node; other nodes apply the
// same envelope at the same position in the total order but on their own
// processing schedule.
func (n *Node) AwaitGroup(name string, timeout time.Duration) error {
	return n.await(n.subscribe("create:"+name), timeout)
}

// KillReplica administratively removes this node's replica of the group —
// the experiments' "kill the server replica". If the group then has fewer
// members than MinimumNumberReplicas, the Resource Manager re-launches
// one automatically.
func (n *Node) KillReplica(group string, timeout time.Duration) error {
	ch := n.subscribe(removedKey(group, n.addr))
	n.multicast(&replication.Envelope{
		Kind:  replication.KRemoveMember,
		Group: group,
		Node:  n.addr,
	})
	return n.await(ch, timeout)
}

// RecoverReplica launches a new replica of the group on this node and
// synchronizes it through the Figure 5 state-transfer protocol. It
// returns when the replica is reinstated to normal operation.
func (n *Node) RecoverReplica(group string, timeout time.Duration) error {
	ch := n.subscribe(recoveredKey(group, n.addr))
	n.multicast(&replication.Envelope{
		Kind:   replication.KAddMember,
		Group:  group,
		Node:   n.addr,
		XferID: n.nextXfer(),
	})
	return n.await(ch, timeout)
}

// AwaitRecovered blocks until a replica of group on node completes its
// state transfer (reinstatement, as measured in the paper's Figure 6).
func (n *Node) AwaitRecovered(group, node string, timeout time.Duration) error {
	return n.await(n.subscribe(recoveredKey(group, node)), timeout)
}

// AwaitPromoted blocks until this node's backup replica of group has been
// promoted to primary (passive failover).
func (n *Node) AwaitPromoted(group, node string, timeout time.Duration) error {
	return n.await(n.subscribe(promotedKey(group, node)), timeout)
}

// HostsReplica reports whether this node currently hosts the group (the
// instance may be a cold-passive log holder).
func (n *Node) HostsReplica(group string) bool {
	hosts := false
	return n.onLoop(func() { hosts = n.hosts[group] != nil }) && hosts
}

// GroupMembers returns the group's current members and their states as
// seen by this node's metadata (a consistent loop-side read).
func (n *Node) GroupMembers(group string) ([]replication.Member, error) {
	var members []replication.Member
	found := false
	if !n.onLoop(func() {
		g, ok := n.table.Get(group)
		if found = ok; ok {
			members = slices.Clone(g.Members)
		}
	}) {
		return nil, ErrNodeStopped
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchGroup, group)
	}
	return members, nil
}

// --- internals shared with host/client files ---

func (n *Node) multicast(env *replication.Envelope) { n.multicastReply(env, false) }

// multicastReply is multicast with the one choice the envelope does not
// carry: whether a reply is lazy — insurance behind the copy the
// requester's own replica sends (see handleRequest).
func (n *Node) multicastReply(env *replication.Envelope, lazy bool) {
	// Pooled encode: Processor.Multicast copies the payload into its own
	// chunk buffer before returning, so the encoder can be released here.
	enc := cdr.AcquireEncoder(cdr.BigEndian)
	env.EncodeTo(enc)
	switch {
	case env.Kind == replication.KReply:
		// A reply stays withdrawable until a token visit sequences it: if
		// a peer's copy is ordered first, ours never reaches the wire. It
		// carries the request's trace, stamped onto the reply phases.
		conn, op := env.Conn, env.OpID
		withdraw := func() bool { return n.replyWithdrawn(conn, op) }
		if lazy {
			n.counters.lazyReplies.Inc()
			_ = n.proc.MulticastLazy(enc.Bytes(), env.Trace, withdraw)
		} else {
			_ = n.proc.MulticastWithdrawable(enc.Bytes(), env.Trace, true, withdraw)
		}
	case env.Kind == replication.KStateChunk, env.Kind == replication.KStateManifest:
		// State transfer rides the bulk lane: totem lets two of these
		// onto the ring per token visit.
		_ = n.proc.MulticastBulk(enc.Bytes())
	case env.Trace != 0:
		// Traced requests: the totem layer stamps the enqueue and transmit
		// phases onto the trace's span as the message crosses it.
		_ = n.proc.MulticastTraced(enc.Bytes(), env.Trace, false)
	case env.Kind == replication.KAudit:
		// Audit marks and reports are background traffic: they ride the
		// paced token instead of waking it, so a quiescent ring stays
		// paced across audit epochs (ordering guarantees are identical).
		_ = n.proc.MulticastBackground(enc.Bytes())
	default:
		_ = n.proc.Multicast(enc.Bytes())
	}
	cdr.ReleaseEncoder(enc)
}

// replyWithdrawn reports whether some replica's copy of the reply to
// (conn, op) is already ordered on this node, and counts the local copy it
// thereby makes unnecessary. Callers ask once per copy they would
// otherwise send (totem polls its withdraw callback until the first true).
func (n *Node) replyWithdrawn(conn replication.ConnID, op uint32) bool {
	if !n.replyMarks.covers(conn, op) {
		return false
	}
	n.counters.repliesWithdrawn.Add(1)
	return true
}

// subscribe returns a channel closed when key is signaled. A key already
// signaled yields a closed channel immediately.
func (n *Node) subscribe(key string) chan struct{} {
	n.waitersMu.Lock()
	defer n.waitersMu.Unlock()
	ch := make(chan struct{})
	if n.signaled[key] {
		close(ch)
		return ch
	}
	n.waiters[key] = append(n.waiters[key], ch)
	return ch
}

func (n *Node) signal(key string) {
	n.waitersMu.Lock()
	defer n.waitersMu.Unlock()
	n.signaled[key] = true
	for _, ch := range n.waiters[key] {
		close(ch)
	}
	delete(n.waiters, key)
}

// resetSignal clears a latched signal key (used for repeatable events
// like repeated recoveries of the same group on the same node).
func (n *Node) resetSignal(key string) {
	n.waitersMu.Lock()
	defer n.waitersMu.Unlock()
	delete(n.signaled, key)
}

func (n *Node) await(ch chan struct{}, timeout time.Duration) error {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-ch:
		return nil
	case <-timer:
		return ErrTimedOut
	case <-n.stopCh:
		return ErrNodeStopped
	}
}

func removedKey(group, node string) string { return "removed:" + group + ":" + node }
