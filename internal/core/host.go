package core

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/faultdetect"
	"eternal/internal/ftcorba"
	"eternal/internal/giop"
	"eternal/internal/obs"
	"eternal/internal/orb"
	"eternal/internal/recovery"
	"eternal/internal/replication"
	"eternal/internal/ring"
)

// itemKind discriminates dispatcher work items.
type itemKind int

const (
	// itemRequest is a delivered client invocation.
	itemRequest itemKind = iota
	// itemCapture runs get_state() on this replica and multicasts the
	// resulting set_state (this node is the donor/primary).
	itemCapture
	// itemApplyCheckpoint applies a delivered checkpoint to a passive
	// backup (warm: set_state into the instance; cold: log only).
	itemApplyCheckpoint
	// itemPromote turns a passive backup into the primary: instantiate if
	// cold, then replay the log (paper §3.2, §3.3).
	itemPromote
	// itemCheckpointMark records, at a state-capture marker's position in
	// the total order, how much of the backup's log the coming checkpoint
	// will subsume. Messages logged after the mark survive the
	// checkpoint's log GC (§3.3: the log holds the messages that follow
	// the checkpoint — its capture point, not its delivery).
	itemCheckpointMark
	// itemAuditCapture digests the replica's state at an audit mark's
	// position (xferID carries the epoch — the mark's delivery seq) and
	// multicasts the digest as a KAudit report.
	itemAuditCapture
)

// dispatchItem is one unit of ordered work for a replica's dispatcher.
// The routing decision (execute / log) is taken by the delivery loop at
// the item's position in the total order, so it is identical at every
// node regardless of dispatcher progress.
type dispatchItem struct {
	kind itemKind
	env  *replication.Envelope
	// execute: run the invocation through the replica (active member, or
	// passive primary). When false for itemRequest, the invocation is
	// logged instead (passive backup).
	execute bool
	// lazyReply: the reply to this itemRequest is insurance only (see
	// handleRequest) and is submitted lazy.
	lazyReply bool
	// bundle for itemApplyCheckpoint, decoded from raw, the verified bytes
	// of its transfer.
	bundle *recovery.Bundle
	raw    []byte
	// xferID for itemCapture.
	xferID uint64
	// checkpoint marks an itemCapture triggered by the periodic
	// checkpointing of passive replication rather than a recovery.
	checkpoint bool
}

// stateDelivery pairs a decoded set_state bundle (and raw, the verified
// bytes it was decoded from) with its transfer id, so the dispatcher can
// stamp the recovery timeline it produces.
type stateDelivery struct {
	bundle *recovery.Bundle
	raw    []byte
	xferID uint64
}

// replicaHost is everything one node keeps for one local replica (or, for
// a cold-passive backup, for its log): the Recovery Mechanisms state of
// paper §4.3, the serial dispatcher that yields quiescence between
// operations (§5), and the enqueue-while-recovering behaviour of §3.3.
type replicaHost struct {
	node  *Node
	group string

	// q is the dispatch queue: the node's delivery loop must never block
	// on a replica whose servant is busy, so items land here and the
	// dispatcher consumes them at its own pace — the paper's "enqueueing
	// of normal incoming IIOP messages at the Recovery Mechanisms"
	// (§3.3). Closing it lets the dispatcher drain what is queued.
	q    *ring.Queue[dispatchItem]
	done chan struct{}

	// recovering hosts hold their queue until the state bundle arrives
	// (the paper's Figure 5: the get_state marker heads the queue and the
	// set_state overwrites it).
	recovering bool
	stateCh    chan stateDelivery
	// recoverStart is the local time of the synchronization point (host
	// creation at the KAddMember position) — the recovery timeline's origin.
	recoverStart time.Time

	// Instance side (nil replica for cold-passive backups).
	replica ftcorba.Replica
	srv     *orb.Server

	// mu guards the maps below: the dispatcher owns them, and captures
	// run on it too, but the $monitor probe reads them from its own
	// goroutine, and tests inspect them.
	mu sync.Mutex
	// conns holds the replica ORB's session for each logical client
	// connection: ordered requests are handed to it in-line, on the
	// dispatcher's goroutine.
	conns      map[replication.ConnID]*orb.Session
	handshakes map[replication.ConnID][][]byte
	lastReqID  map[replication.ConnID]uint32

	// reqFilter suppresses duplicate invocations (infrastructure-level
	// state, §4.3).
	reqFilter *replication.DupFilter

	// log is the checkpoint+message log of §3.3 (passive members).
	log *recovery.Log
	// ckptMarks maps a pending capture's transfer id to the log length at
	// its marker position (see itemCheckpointMark).
	ckptMarks map[uint64]int

	// internalID numbers the synthetic get_state/set_state invocations.
	internalID uint32

	// monitor pull-monitors the replica at its FaultMonitoringInterval.
	monitor *faultdetect.Monitor
	// probeMu serializes liveness probes on their dedicated connection
	// (the dispatcher's internal connection stays undisturbed).
	probeMu sync.Mutex
	probeID uint32

	// disableORBStateTransfer reproduces the §4.2 failure modes for the
	// paper's Figure 4 / handshake experiments: only application-level
	// state is transferred.
	disableORBStateTransfer bool
}

func newReplicaHost(n *Node, group string, withInstance, recovering bool) (*replicaHost, error) {
	h := &replicaHost{
		node:       n,
		group:      group,
		q:          ring.NewQueue[dispatchItem](),
		done:       make(chan struct{}),
		recovering: recovering,
		stateCh:    make(chan stateDelivery, 1),
		conns:      make(map[replication.ConnID]*orb.Session),
		handshakes: make(map[replication.ConnID][][]byte),
		lastReqID:  make(map[replication.ConnID]uint32),
		reqFilter:  replication.NewDupFilter(),
		log:        recovery.NewLog(),
		ckptMarks:  make(map[uint64]int),
	}
	if recovering {
		h.recoverStart = time.Now()
	}
	if withInstance {
		if err := h.instantiate(); err != nil {
			return nil, err
		}
	}
	// The dispatcher takes the initial recovering mode as a parameter;
	// the struct field itself is owned by the node's delivery loop.
	go h.run(recovering)
	return h, nil
}

// instantiate creates the replica object via its registered factory and
// stands up its private server ORB.
func (h *replicaHost) instantiate() error {
	factory, ok := h.node.factory(h.groupType())
	if !ok {
		return fmt.Errorf("core: node %s has no factory for type %q (group %s)",
			h.node.addr, h.groupType(), h.group)
	}
	h.replica = factory(h.group)
	h.srv = orb.NewServer(orb.ServerOptions{})
	h.srv.RootPOA().Activate(h.group, ftcorba.Servant(h.replica))
	return nil
}

func (h *replicaHost) groupType() string {
	return h.node.groupTypeName(h.group)
}

// run is the dispatcher: one item at a time, in total order. Because the
// replica performs at most one operation at any moment, it is quiescent
// between items — which is when get_state may run (paper §5).
func (h *replicaHost) run(recovering bool) {
	if recovering {
		// Figure 5 steps (i)–(v): hold the queue until set_state arrives,
		// apply the three kinds of state, then drain. The wait splits into
		// donor-side capture (measured by the donor, shipped in the bundle)
		// and transfer; replaying the backlog enqueued while recovering
		// (§3.3) is the final phase.
		select {
		case sd := <-h.stateCh:
			wait := time.Since(h.recoverStart)
			capture := min(time.Duration(sd.bundle.CaptureNanos), wait)
			applyStart := time.Now()
			h.applyState(sd.bundle, sd.raw)
			apply := time.Since(applyStart)
			enqueued := h.q.Len()
			replayStart := time.Now()
			for i := 0; i < enqueued; i++ {
				item, ok := h.q.Pop()
				if !ok {
					return
				}
				h.process(item)
			}
			h.node.recordRecovery(h.group, sd.xferID, h.recoverStart,
				capture, wait-capture, apply, time.Since(replayStart), enqueued)
			h.node.signal(recoveredKey(h.group, h.node.addr))
		case <-h.done:
			return
		}
	}
	for {
		item, ok := h.q.Pop()
		if !ok {
			return
		}
		h.process(item)
	}
}

func (h *replicaHost) process(item dispatchItem) {
	switch item.kind {
	case itemRequest:
		// Non-creating marks from here on: the delivery loop opened this
		// node's span at the ordered point, and a replica that gets to the
		// request only after the client's span closed (a peer's reply won)
		// must not re-open an empty fragment of it.
		h.node.spans.MarkOpen(item.env.Trace, obs.SpanDelivered)
		if item.execute {
			h.executeRequest(item.env, false, item.lazyReply)
		} else {
			h.log.Append(item.env)
			h.node.counters.requestsLogged.Add(1)
		}
	case itemCapture:
		h.capture(item.xferID, item.checkpoint)
	case itemApplyCheckpoint:
		h.applyCheckpoint(item.bundle, item.raw, item.xferID)
	case itemPromote:
		h.promote()
	case itemCheckpointMark:
		h.ckptMarks[item.xferID] = h.log.Len()
	case itemAuditCapture:
		h.auditReport(item.xferID)
	}
}

// auditReport digests the replica's state at an audit mark's agreed
// position in the total order and multicasts the digest. Because the
// dispatcher is serial, the digest runs exactly between the invocations
// ordered around the mark — the same logical point on every member, even
// one replaying a held recovery queue. The digest covers the canonically
// encoded application state (get_state) and the request duplicate filter,
// the two kinds of state every active member must hold identically.
func (h *replicaHost) auditReport(epoch uint64) {
	if h.replica == nil {
		return
	}
	appState, err := h.invokeInternal(ftcorba.OpGetState, nil)
	if err != nil {
		// NoStateAvailable or a wedged instance: skip this epoch; the
		// collector's lag rule covers a persistently silent member.
		return
	}
	filterState := replication.EncodeFilterState(h.reqFilter.Snapshot())
	rec := replication.AuditRecord{Epoch: epoch, Digest: replication.DigestState(appState, filterState)}
	h.node.counters.auditReports.Add(1)
	h.node.multicast(&replication.Envelope{
		Kind:    replication.KAudit,
		Group:   h.group,
		Node:    h.node.addr,
		OpID:    replication.AuditReport,
		XferID:  epoch,
		Payload: rec.Encode(),
	})
}

// executeRequest hands one invocation to the replica's ORB and
// multicasts the reply — unless a peer replica's copy of that reply is
// already ordered (replyMarks). force bypasses duplicate suppression during
// log replay (the log was already deduplicated when written); lazy submits
// the reply as insurance behind the requester's own replica.
func (h *replicaHost) executeRequest(env *replication.Envelope, force, lazy bool) {
	first := h.reqFilter.FirstDelivery(env.Conn, env.OpID)
	if !first && !force {
		h.node.counters.duplicatesSuppressed.Add(1)
		return // duplicate invocation from another client replica (§2.1)
	}
	h.node.counters.requestsExecuted.Add(1)
	msg, err := giop.ParseMessage(env.Payload)
	if err != nil {
		return
	}
	rep, seen := h.sessionFor(env.Conn).Handle(msg)
	h.recordORBState(env, seen)
	if env.Oneway {
		h.node.spans.MarkOpen(env.Trace, obs.SpanExecuted)
		return
	}
	if rep == nil || rep.Type != giop.MsgReply {
		// The ORB discarded the request (e.g. an unnegotiated short key,
		// §4.2.2): no reply is multicast — the "client waits forever"
		// symptom the recovery of ORB-level state exists to prevent.
		return
	}
	h.node.spans.MarkOpen(env.Trace, obs.SpanExecuted)
	if h.node.replyWithdrawn(env.Conn, env.OpID) {
		// A peer's copy is already ordered (a late replica, or one
		// replaying its held queue or its log): ours stays home.
		return
	}
	h.node.multicastReply(&replication.Envelope{
		Kind:    replication.KReply,
		Conn:    env.Conn,
		OpID:    env.OpID,
		Trace:   env.Trace,
		Payload: rep.Marshal(),
	}, lazy)
}

// sessionFor returns (creating on demand) the replica ORB's session for a
// logical client connection.
func (h *replicaHost) sessionFor(conn replication.ConnID) *orb.Session {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sess, ok := h.conns[conn]; ok {
		return sess
	}
	sess := h.srv.NewSession()
	h.conns[conn] = sess
	return sess
}

// recordORBState keeps the per-connection ORB/POA-level state the paper's
// mechanisms learn by watching the stream: handshake-carrying messages
// (for replay into recovered replicas, §4.2.2) and the last request id.
// What the request carried is what the ORB's own parse of it saw.
func (h *replicaHost) recordORBState(env *replication.Envelope, seen orb.Seen) {
	if !seen.Request {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lastReqID[env.Conn] = env.OpID
	if seen.Handshake {
		h.handshakes[env.Conn] = append(h.handshakes[env.Conn], env.Payload)
	}
}

// invokeInternal performs a synthetic local invocation (get_state,
// set_state) through the replica's ORB, exactly as the paper's mechanisms
// deliver fabricated IIOP invocations. It returns the reply body.
func (h *replicaHost) invokeInternal(op string, args []byte) ([]byte, error) {
	h.internalID++
	return h.invokeOn("$eternal", h.internalID, op, args)
}

// invokeOn performs synthetic invocation id on the session of client, one
// of the mechanisms' own entities ($eternal, $monitor), and returns the
// reply body.
func (h *replicaHost) invokeOn(client string, id uint32, op string, args []byte) ([]byte, error) {
	sess := h.sessionFor(replication.ConnID{Client: client, Group: h.group})
	hdr := &giop.RequestHeader{
		RequestID:        id,
		ResponseExpected: true,
		ObjectKey:        []byte("root/" + h.group),
		Operation:        op,
	}
	rep, _ := sess.Handle(giop.EncodeRequest(giop.Version12, cdr.BigEndian, hdr, args))
	if rep == nil {
		return nil, fmt.Errorf("core: %s got no reply", op)
	}
	parsed, err := giop.ParseReply(rep)
	if err != nil {
		return nil, err
	}
	if parsed.Header.Status != giop.ReplyNoException {
		return nil, fmt.Errorf("core: %s raised %v", op, parsed.Header.Status)
	}
	return parsed.Result, nil
}

// capture is the donor side of a state transfer (Figure 5 steps i–iv):
// retrieve application-level state with get_state(), piggyback ORB-level
// and infrastructure-level state, and hand the fabricated set_state to the
// chunk stream (xfer.go).
// checkpoint distinguishes the periodic captures of passive replication
// from recovery transfers (only the latter feed the recovery histogram).
func (h *replicaHost) capture(xferID uint64, checkpoint bool) {
	captureStart := time.Now()
	appState, err := h.invokeInternal(ftcorba.OpGetState, nil)
	if err != nil {
		// NoStateAvailable or a dead instance: skip this transfer; the
		// resource manager will retry.
		return
	}
	captureDur := time.Since(captureStart)
	if !checkpoint {
		h.node.recoveryCapture.ObserveDuration(captureDur)
	}
	bundle := &recovery.Bundle{AppState: appState, CaptureNanos: int64(captureDur)}
	if !h.disableORBStateTransfer {
		h.mu.Lock()
		for conn, hs := range h.handshakes {
			for _, raw := range hs {
				bundle.ORB.ServerConns = append(bundle.ORB.ServerConns, recovery.ServerConnState{
					Conn:          conn,
					Handshake:     raw,
					LastRequestID: h.lastReqID[conn],
				})
			}
		}
		h.mu.Unlock()
		if ce := h.node.clientEntityIfExists(h.group); ce != nil {
			bundle.ORB.ClientConns = ce.snapshotClientConns()
			bundle.Infra.ReplyFilter = replication.EncodeFilterState(ce.replyFilter.Snapshot())
		}
	}
	bundle.Infra.RequestFilter = replication.EncodeFilterState(h.reqFilter.Snapshot())
	h.node.counters.stateCaptures.Add(1)
	h.node.recorder.Record(obs.Event{
		Type: obs.EventGetState, Group: h.group, Node: h.node.addr,
		XferID: xferID, Value: int64(len(bundle.AppState)),
		Detail: fmt.Sprintf("checkpoint=%t", checkpoint),
	})
	h.node.logger().Info("state captured", "group", h.group, "xfer", xferID,
		"appStateBytes", len(bundle.AppState), "serverConns", len(bundle.ORB.ServerConns),
		"captureDuration", captureDur, "checkpoint", checkpoint)
	h.node.sendChunked(h.group, xferID, bundle.Encode())
}

// applyState is the recovering side (Figure 5 steps v–vi); raw is the
// bundle's encoding. A cold-passive log holder has no instance: the bundle
// goes to its log instead.
func (h *replicaHost) applyState(bundle *recovery.Bundle, raw []byte) {
	h.node.counters.stateApplied.Add(1)
	h.node.logger().Info("state applied", "group", h.group,
		"appStateBytes", len(bundle.AppState), "handshakes", len(bundle.ORB.ServerConns))
	if h.replica == nil {
		h.checkpointLog(raw, h.log.Len())
	}
	h.assign(bundle)
}

// checkpointLog overwrites the log's checkpoint and discards the first
// keep logged messages, which it subsumes (§3.3's log GC). Only a host
// without an instance keeps raw, the checkpoint's encoding: a cold
// backup's promotion is its one reader.
func (h *replicaHost) checkpointLog(raw []byte, keep int) {
	if h.replica != nil {
		raw = nil
	}
	dropped := h.log.TruncateTo(raw, keep)
	h.node.recorder.Record(obs.Event{Type: obs.EventLogGC, Group: h.group, Value: int64(dropped)})
}

// assign is the paper's central operation: the three kinds of state,
// assigned in its order (§4.3) — application-level first, ORB/POA-level
// next, infrastructure-level last — before anything normal is processed.
// A host with no instance takes only the last.
func (h *replicaHost) assign(bundle *recovery.Bundle) {
	if h.replica != nil {
		// 1. Application-level state. InvalidState leaves the replica at
		// its initial state: better to serve stale than to wedge, and
		// tests assert on the success path.
		if len(bundle.AppState) > 0 {
			_, _ = h.invokeInternal(ftcorba.OpSetState, bundle.AppState)
		}
		// 2. ORB/POA-level state: replay each stored handshake message
		// into the fresh ORB ahead of any normal request; the response
		// confirms the synchronization and is discarded (§4.2.2).
		if !h.disableORBStateTransfer {
			for _, sc := range bundle.ORB.ServerConns {
				h.replayHandshake(sc)
			}
			if ce := h.node.clientEntityIfExists(h.group); ce != nil {
				var rf map[replication.ConnID]uint32
				if len(bundle.Infra.ReplyFilter) > 0 {
					rf, _ = replication.DecodeFilterState(bundle.Infra.ReplyFilter)
				}
				ce.installClientConns(bundle.ORB.ClientConns, rf)
			}
		}
	}
	// 3. Infrastructure-level state. Merge, never rewind: this host may
	// already have seen (enqueued or logged) operations ordered after the
	// capture point.
	if len(bundle.Infra.RequestFilter) > 0 {
		if state, err := replication.DecodeFilterState(bundle.Infra.RequestFilter); err == nil {
			h.reqFilter.MergeMax(state)
		}
	}
}

// replayHandshake hands a stored handshake message to the new replica's
// ORB. The operation name is rewritten to a side-effect-free
// one: what matters to the ORB is the service contexts and the key, not
// the application operation the original message happened to carry.
func (h *replicaHost) replayHandshake(sc recovery.ServerConnState) {
	// Periodic checkpoints carry the same handshakes every time; replay
	// each one only once per connection.
	h.mu.Lock()
	for _, prev := range h.handshakes[sc.Conn] {
		if bytes.Equal(prev, sc.Handshake) {
			if sc.LastRequestID > h.lastReqID[sc.Conn] {
				h.lastReqID[sc.Conn] = sc.LastRequestID
			}
			h.mu.Unlock()
			return
		}
	}
	h.mu.Unlock()
	msg, err := giop.ParseMessage(sc.Handshake)
	if err != nil {
		return
	}
	req, err := giop.ParseRequest(msg)
	if err != nil {
		return
	}
	req.Header.Operation = ftcorba.OpHandshakeReplay
	req.Header.ResponseExpected = true
	replay := giop.EncodeRequest(msg.Version, msg.Order, &req.Header, nil)

	// The reply confirms the ORB absorbed the negotiation; discard it.
	if rep, _ := h.sessionFor(sc.Conn).Handle(replay); rep == nil {
		return
	}
	h.node.counters.handshakesReplayed.Add(1)
	h.mu.Lock()
	h.handshakes[sc.Conn] = append(h.handshakes[sc.Conn], sc.Handshake)
	h.lastReqID[sc.Conn] = sc.LastRequestID
	h.mu.Unlock()
}

// applyCheckpoint brings an operational passive backup to the primary's
// checkpoint. All three kinds of state matter here, not just the
// application-level snapshot: the backup's ORB must also absorb the
// clients' handshakes (else, once promoted, it would discard their
// negotiated short-key requests — the very §4.2.2 failure the paper
// dissects). The checkpoint also clears the messages it subsumes from the
// log (§3.3's GC).
func (h *replicaHost) applyCheckpoint(bundle *recovery.Bundle, raw []byte, xferID uint64) {
	mark, ok := h.ckptMarks[xferID]
	if !ok {
		// We never saw this capture's marker (the host was created after
		// it, or the transfer was a recovery's, which marks nothing):
		// applying would discard log entries the checkpoint does not
		// subsume. Skip — the next checkpoint covers us.
		return
	}
	// Transfer ids are node-scoped and not globally ordered; only the
	// matched mark is consumed. Marks whose capture never produced a
	// set_state (donor died) are orphaned, bounded by failure count.
	delete(h.ckptMarks, xferID)
	h.assign(bundle)
	h.checkpointLog(raw, mark)
}

// promote makes this backup the primary: a cold backup instantiates the
// replica and applies the logged checkpoint first; then the messages
// logged since that checkpoint are replayed through the replica, and the
// replies re-multicast — clients that already got the old primary's reply
// suppress the duplicates, clients the old primary never answered get
// theirs now (§3.2, §3.3).
func (h *replicaHost) promote() {
	cold := h.replica == nil
	if cold {
		if err := h.instantiate(); err != nil {
			return
		}
		if raw, ok := h.log.Checkpoint(); ok {
			if bundle, err := recovery.DecodeBundle(raw); err == nil {
				h.applyState(bundle, raw)
			}
		}
	}
	replayed := h.log.Len()
	h.log.Each(func(env *replication.Envelope) {
		h.executeRequest(env, true, false)
	})
	h.log.Reset()
	if cold {
		h.node.monitorPromoted(h)
	}
	h.node.counters.promotions.Add(1)
	h.node.recorder.Record(obs.Event{
		Type: obs.EventPromoted, Group: h.group, Node: h.node.addr,
		Value: int64(replayed),
	})
	h.node.logger().Info("promoted to primary", "group", h.group, "replayed", replayed)
	h.node.signal(promotedKey(h.group, h.node.addr))
}

// probeAlive performs one is_alive() probe through the replica's ORB on a
// session of its own. A wedged servant holds the ORB's dispatch lock,
// so the probe hangs exactly when a client invocation would — which is
// the behaviour the pull monitor converts into a fault after one interval.
func (h *replicaHost) probeAlive() bool {
	if h.replica == nil {
		return true // log-only cold backups have nothing to probe
	}
	h.probeMu.Lock()
	defer h.probeMu.Unlock()
	h.probeID++
	_, err := h.invokeOn("$monitor", h.probeID, ftcorba.OpIsAlive, nil)
	return err == nil
}

// stop tears the host down (replica kill or node shutdown).
func (h *replicaHost) stop() {
	if h.monitor != nil {
		h.monitor.Stop()
	}
	close(h.done)
	h.q.Close()
	// A closed ORB answers nothing: what the dispatcher still drains from
	// its queue is not executed.
	if h.srv != nil {
		h.srv.Close()
	}
}

func recoveredKey(group, node string) string { return "recovered:" + group + ":" + node }
func promotedKey(group, node string) string  { return "promoted:" + group + ":" + node }
