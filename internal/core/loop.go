package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"eternal/internal/faultdetect"
	"eternal/internal/ftcorba"
	"eternal/internal/obs"
	"eternal/internal/replication"
	"eternal/internal/totem"
)

// loop is the node's single delivery-processing goroutine: it evaluates
// the deterministic state machine over the totally-ordered stream. It
// must never block on replica execution — that is what the per-replica
// dispatchers are for.
func (n *Node) loop() {
	defer close(n.loopDone)
	defer n.shutdownHosts()
	ticker := time.NewTicker(n.cfg.ManagerTick)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case d, ok := <-n.proc.Deliveries():
			if !ok {
				return
			}
			n.handleDelivery(d)
		case now := <-ticker.C:
			n.sweep(now)
		case f := <-n.calls:
			f()
		}
	}
}

func (n *Node) shutdownHosts() {
	for _, h := range n.hosts {
		h.stop()
	}
	n.clientsMu.Lock()
	clients := make([]*clientEntity, 0, len(n.clients))
	for _, ce := range n.clients {
		clients = append(clients, ce)
	}
	n.clientsMu.Unlock()
	for _, ce := range clients {
		ce.closeAll()
	}
}

func (n *Node) handleDelivery(d totem.Delivery) {
	n.lastSeq.Store(d.Seq)
	if !n.synced {
		n.handleUnsynced(d)
		return
	}
	if d.View != nil {
		n.handleView(d.View)
		return
	}
	if env := envelopeOf(d); env != nil {
		n.handleEnvelope(d.Seq, d.Sender, env)
	}
}

// envelopeOf returns the envelope the ordered-point hook decoded for a
// message delivery (replyMarks.ordered), nil if it did not parse.
func envelopeOf(d totem.Delivery) *replication.Envelope {
	env, _ := d.App.(*replication.Envelope)
	return env
}

// --- metadata synchronization for joining nodes ---

// setView installs v as the node's current view and wakes AwaitView.
func (n *Node) setView(v *totem.Membership) {
	n.resetSignal(viewKey(n.view.Members))
	n.view = *v
	n.signal(viewKey(v.Members))
}

// syncEnvelope builds a KSyncRequest by, or a KSyncState for, node, naming
// the current view in the connection-id fields neither kind otherwise uses.
func (n *Node) syncEnvelope(kind replication.Kind, node string) *replication.Envelope {
	return &replication.Envelope{
		Kind: kind, Node: node,
		Conn: replication.ConnID{Client: n.view.Rep, Seq: n.view.Epoch},
	}
}

func (n *Node) inView(env *replication.Envelope) bool {
	return env.Conn.Client == n.view.Rep && env.Conn.Seq == n.view.Epoch
}

// requestSync starts this node's synchronization over in view v: whatever
// it asked, was told or buffered in an earlier view is void.
func (n *Node) requestSync(v *totem.Membership) {
	n.setView(v)
	n.syncSeen, n.syncSeq, n.syncBuf, n.syncFrom = nil, 0, nil, 0
	n.multicast(n.syncEnvelope(replication.KSyncRequest, n.addr))
}

// handleUnsynced is the delivery loop of a node without the group table
// (doc/PROTOCOL.md §2). It asks in every view and becomes synced at a
// position in the total order: its own request's, when a synced member
// answers; or, when every member of the view asks (so none is synced), the
// last of those requests, where all start from an empty table (cold start).
func (n *Node) handleUnsynced(d totem.Delivery) {
	if d.View != nil {
		n.requestSync(d.View)
		return
	}
	env := envelopeOf(d)
	if env == nil {
		return
	}
	switch env.Kind {
	case replication.KSyncRequest:
		if !n.inView(env) || !slices.Contains(n.view.Members, env.Node) || slices.Contains(n.syncSeen, env.Node) {
			return
		}
		if env.Node == n.addr {
			// The snapshot point of an answer, should one come.
			n.syncSeq, n.syncFrom = d.Seq, len(n.syncBuf)
		}
		n.syncSeen = append(n.syncSeen, env.Node)
		if len(n.syncSeen) == len(n.view.Members) {
			// An ordered event where there is somebody to line up with: a
			// node alone counts in a sequence space of its own, which the
			// merge that ends its solitude resets.
			n.becomeSynced(replication.NewTable(), n.syncBuf, obs.Event{
				Seq: d.Seq, Ordered: len(n.view.Members) > 1,
				Detail: fmt.Sprintf("cold-start epoch=%d rep=%s", n.view.Epoch, n.view.Rep),
			})
		}
	case replication.KSyncState:
		// Only the answer to the latest request: its snapshot point is
		// where the replay buffer starts.
		if env.Node != n.addr || !n.inView(env) || env.XferID != n.syncSeq {
			return
		}
		table, err := replication.DecodeTable(env.Payload)
		if err != nil {
			return
		}
		replay := n.syncBuf[n.syncFrom:]
		n.becomeSynced(table, replay, obs.Event{
			Seq:    n.syncSeq,
			Detail: fmt.Sprintf("groups=%d buffered=%d", len(table.Names()), len(replay)),
		})
	default:
		n.syncBuf = append(n.syncBuf, d)
	}
}

// rebuildGroupSet refreshes the read-mostly group view the API goroutines
// consult (dialers, IOR minting).
func (n *Node) rebuildGroupSet() {
	n.groupsMu.Lock()
	defer n.groupsMu.Unlock()
	n.groupSet = make(map[string]*replication.GroupSpec, len(n.table.Names()))
	for _, name := range n.table.Names() {
		g, _ := n.table.Get(name)
		spec := g.Spec
		n.groupSet[name] = &spec
	}
}

// becomeSynced adopts table, records ev as the synced event, releases the
// AwaitGroup waiters of the groups it lists and replays the deliveries the
// table does not yet reflect.
func (n *Node) becomeSynced(table *replication.Table, replay []totem.Delivery, ev obs.Event) {
	n.table = table
	n.rebuildGroupSet()
	n.synced = true
	n.syncBuf = nil // replay keeps what it needs; the rest of the sync state waits for requestSync
	ev.Type = obs.EventSynced
	n.recorder.Record(ev)

	// If the received table still lists this (freshly restarted) node as a
	// member, those replicas died with the previous incarnation: remove
	// them so the Resource Manager can re-launch clean ones.
	for _, name := range table.Names() {
		// The table's groups are created here as far as AwaitGroup goes.
		n.signal("create:" + name)
		g, _ := table.Get(name)
		if g.HasMember(n.addr) {
			n.multicast(&replication.Envelope{
				Kind:  replication.KRemoveMember,
				Group: name,
				Node:  n.addr,
			})
		}
	}
	for _, d := range replay {
		n.handleDelivery(d)
	}
	n.signal("synced")
}

// AwaitSynced blocks until the node has the group-metadata table: a synced
// member's, or the empty one every member of a view starts from when none
// of them has any (see handleUnsynced).
func (n *Node) AwaitSynced(timeout time.Duration) error {
	return n.await(n.subscribe("synced"), timeout)
}

// AwaitView blocks until the node's current view is exactly members.
func (n *Node) AwaitView(members []string, timeout time.Duration) error {
	return n.await(n.subscribe(viewKey(members)), timeout)
}

func viewKey(members []string) string {
	sorted := slices.Sorted(slices.Values(members))
	return "view:" + strings.Join(sorted, ",")
}

// --- view changes ---

func (n *Node) handleView(v *totem.Membership) {
	// The view's stream position (StartSeq) is agreed across the lineage,
	// and so is its content — but not the Reset flag, which is this
	// processor's own relationship to the lineage; it is recorded as a
	// separate local event so cross-node merges see identical view events.
	n.recorder.Record(obs.Event{
		Type: obs.EventView, Seq: v.StartSeq, Ordered: true,
		Detail: fmt.Sprintf("epoch=%d rep=%s members=%s",
			v.Epoch, v.Rep, strings.Join(v.Members, ",")),
	})
	if v.Reset {
		// We are on the losing side of a partition merge: our replicas
		// diverged and our metadata is stale. Re-synchronize from scratch
		// and shed our (now worthless) replicas.
		n.recorder.Record(obs.Event{
			Type: obs.EventViewReset, Seq: v.StartSeq,
			Detail: fmt.Sprintf("epoch=%d shedding=%d", v.Epoch, len(n.hosts)),
		})
		for name, h := range n.hosts {
			h.stop()
			delete(n.hosts, name)
			n.publishAnswering(name)
		}
		n.primaryOf = make(map[string]bool)
		n.pendingAdd = make(map[string]bool)
		clear(n.inXfers)
		n.synced = false
		n.resetSignal("synced")
		n.requestSync(v)
		return
	}
	var dead []string
	for _, prev := range n.view.Members {
		if !slices.Contains(v.Members, prev) {
			dead = append(dead, prev)
		}
	}
	n.setView(v)
	for _, node := range dead {
		n.logger().Info("processor failed", "node", node)
		// Local, not ordered: which peers count as newly dead depends on
		// the previous membership this node happens to have seen.
		n.recorder.Record(obs.Event{
			Type: obs.EventProcessorFail, Seq: v.StartSeq, Node: node,
			Detail: fmt.Sprintf("epoch=%d", v.Epoch),
		})
		// Its bulk lane is gone with it: a transfer it left open gets no
		// more chunks and no manifest.
		delete(n.inXfers, node)
		for _, name := range n.table.NodeFailed(node) {
			n.audit.MemberRemoved(name, node)
			n.resetSignal(recoveredKey(name, node))
			n.resetSignal(promotedKey(name, node))
			n.signal(removedKey(name, node))
			n.reconcile(name)
		}
	}
}

// reconcile reacts to a membership change of one group: primary
// promotion, and re-triggering the state captures whose donor died. A
// donor that stays the donor already owes one capture per add.
func (n *Node) reconcile(name string) {
	n.publishAnswering(name)
	g, ok := n.table.Get(name)
	if !ok {
		return
	}
	h := n.hosts[name]
	isPrimary := g.IsPrimary(n.addr)
	wasPrimary := n.primaryOf[name]
	n.primaryOf[name] = isPrimary
	if h != nil && isPrimary && !wasPrimary && g.Spec.Props.Style != ftcorba.Active {
		// This backup is promoted: replay the log (paper §3.2/§3.3).
		h.q.Push(dispatchItem{kind: itemPromote})
	}
	if isPrimary && !wasPrimary {
		// This node just became the donor: the one before it may have died
		// with the captures it owed.
		n.recapture(g, h)
	}
}

// recapture has this node, the donor, capture again for every member still
// recovering, each under the transfer its own add named, so that member's
// manifest is the one that cures it.
func (n *Node) recapture(g *replication.Group, h *replicaHost) {
	if h == nil || h.recovering {
		return
	}
	for _, m := range g.Members {
		if m.State == replication.MemberRecovering {
			h.q.Push(dispatchItem{kind: itemCapture, xferID: m.XferID})
		}
	}
}

// --- envelope handling (the replicated state machine) ---

// handleEnvelope applies one delivered envelope, multicast by node
// sender, at its agreed position seq in the total order. Membership,
// recovery and checkpoint envelopes leave seq-stamped ordered events in
// the flight recorder; the request and reply hot paths record nothing.
func (n *Node) handleEnvelope(seq uint64, sender string, env *replication.Envelope) {
	switch env.Kind {
	case replication.KRequest:
		n.handleRequest(seq, sender, env)
	case replication.KReply:
		n.spans.MarkOpen(env.Trace, obs.SpanReplyOrdered)
		if ce := n.clientEntityIfExists(env.Conn.Client); ce != nil {
			ce.deliverReply(env)
		}
	case replication.KCreateGroup:
		n.handleCreate(seq, env)
	case replication.KRemoveMember:
		n.handleRemove(seq, env)
	case replication.KAddMember:
		n.handleAdd(seq, env)
	case replication.KStateChunk:
		n.handleStateChunk(sender, env)
	case replication.KStateManifest:
		n.handleStateManifest(seq, sender, env)
	case replication.KCheckpoint:
		n.handleCheckpoint(seq, env)
	case replication.KAudit:
		n.handleAudit(seq, env)
	case replication.KSyncRequest:
		if n.inView(env) {
			// Snapshot at this position, which the answer names; every
			// synced node answers (the requester uses the first copy).
			answer := n.syncEnvelope(replication.KSyncState, env.Node)
			answer.XferID = seq
			answer.Payload = n.table.EncodeTable()
			n.multicast(answer)
		}
	case replication.KSyncState:
		// Already synced: someone else's snapshot.
	}
}

func (n *Node) handleRequest(seq uint64, sender string, env *replication.Envelope) {
	n.spans.Annotate(env.Trace, env.Group)
	n.spans.MarkSeq(env.Trace, obs.SpanOrdered, seq)
	g, ok := n.table.Get(env.Group)
	if !ok {
		return
	}
	h := n.hosts[env.Group]
	if h == nil {
		return
	}
	execute, lazy := true, false
	if g.Spec.Props.Style != ftcorba.Active {
		// Passive replication: only the primary executes; backups log.
		execute = answers(g, n.addr)
	} else if sender != n.addr && answers(g, sender) {
		// The node that multicast the request hosts an operational
		// replica, and the client behind the request sits on that node:
		// its replica's reply is the one that gets there without a token
		// rotation. Every other replica's copy is insurance against that
		// replica dying between here and its reply — decided here, at the
		// ordered point against the replicated table, so every node makes
		// the same call. A request from a node without a replica
		// (client-only node) leaves all replies urgent.
		lazy = true
	}
	h.q.Push(dispatchItem{kind: itemRequest, env: env, execute: execute, lazyReply: lazy})
}

func (n *Node) handleCreate(seq uint64, env *replication.Envelope) {
	spec, err := replication.DecodeSpec(env.Payload)
	if err != nil {
		return
	}
	g, err := n.table.Create(spec)
	if err != nil {
		// Duplicate creation: unblock any waiter anyway.
		n.signal("create:" + spec.Name)
		return
	}
	n.recorder.Record(obs.Event{
		Type: obs.EventGroupCreate, Seq: seq, Ordered: true, Group: spec.Name,
		Detail: fmt.Sprintf("style=%s nodes=%s",
			spec.Props.Style.String(), strings.Join(spec.Nodes, ",")),
	})
	n.groupsMu.Lock()
	n.groupSet[spec.Name] = &g.Spec
	n.groupsMu.Unlock()

	for _, m := range g.Members {
		// A member exists (again): un-latch its removal signal so later
		// kills wait for their own removal, not a stale one.
		n.resetSignal(removedKey(spec.Name, m.Node))
	}
	if g.HasMember(n.addr) && n.hostReplica(g, g.IsPrimary(n.addr), false) {
		n.logger().Info("replica hosted", "group", spec.Name,
			"style", spec.Props.Style.String(), "primary", g.IsPrimary(n.addr))
		n.publishAnswering(spec.Name)
	}
	n.signal("create:" + spec.Name)
}

// hostReplica stands up this node's replica of g and registers it:
// primary says whether this node is g's primary now (a cold-passive backup
// that is not gets no instance, only a log), and a recovering replica holds
// its queue for its state and is monitored only from its manifest on. It
// reports whether the replica could be instantiated.
func (n *Node) hostReplica(g *replication.Group, primary, recovering bool) bool {
	props := g.Spec.Props
	h, err := newReplicaHost(n, g.Spec.Name, props.Style, props.Style != ftcorba.ColdPassive || primary, recovering)
	if err != nil {
		return false
	}
	h.disableORBStateTransfer = n.disableORBStateTransfer.Load()
	h.log.SetPolicy(props.CheckpointEveryN, props.CheckpointInterval, time.Now())
	n.hosts[g.Spec.Name] = h
	n.primaryOf[g.Spec.Name] = primary
	if !recovering {
		n.startMonitor(h, props.FaultMonitoringInterval)
	}
	return true
}

func (n *Node) handleRemove(seq uint64, env *replication.Envelope) {
	removed, err := n.table.RemoveMember(env.Group, env.Node)
	if err != nil {
		return
	}
	if removed {
		n.recorder.Record(obs.Event{
			Type: obs.EventMemberRemove, Seq: seq, Ordered: true,
			Group: env.Group, Node: env.Node,
		})
	}
	if removed && env.Node == n.addr {
		if h := n.hosts[env.Group]; h != nil {
			h.stop()
			delete(n.hosts, env.Group)
		}
		delete(n.primaryOf, env.Group)
		n.logger().Info("replica removed", "group", env.Group)
	}
	if removed {
		n.audit.MemberRemoved(env.Group, env.Node)
		n.resetSignal(recoveredKey(env.Group, env.Node))
		n.resetSignal(promotedKey(env.Group, env.Node))
		n.reconcile(env.Group)
	}
	n.signal(removedKey(env.Group, env.Node))
}

func (n *Node) handleAdd(seq uint64, env *replication.Envelope) {
	delete(n.pendingAdd, env.Group)
	g, err := n.table.AddRecovering(env.Group, env.Node, env.XferID)
	if err != nil {
		return
	}
	n.resetSignal(removedKey(env.Group, env.Node))
	_, hasDonorNow := g.Primary()
	// This position is the recovery's synchronization point (Figure 5
	// step i): every node records it identically.
	n.recorder.Record(obs.Event{
		Type: obs.EventMemberAdd, Seq: seq, Ordered: true,
		Group: env.Group, Node: env.Node, XferID: env.XferID,
		Detail: fmt.Sprintf("donor=%t", hasDonorNow),
	})
	if env.Node == n.addr {
		// Figure 5 step (i): this position is the synchronization point;
		// the new replica enqueues everything from here on — unless no
		// operational member exists anywhere (total group loss): then
		// there is no state to wait for, and the new replica starts from
		// its type's initial state immediately.
		if n.hostReplica(g, !hasDonorNow, hasDonorNow) && !hasDonorNow {
			n.logger().Info("replica restarted from initial state (total group loss)",
				"group", env.Group)
		}
	}
	if !hasDonorNow {
		// Everyone marks the lone member operational at this position.
		if err := n.table.MarkOperational(env.Group, env.Node); err == nil {
			n.signal(recoveredKey(env.Group, env.Node))
			n.reconcile(env.Group)
			// The lone member was the primary from its add on, so reconcile
			// saw no new donor; it owes the members stuck recovering their
			// captures all the same.
			if env.Node == n.addr {
				n.recapture(g, n.hosts[env.Group])
			}
		}
		return
	}
	// Figure 5 steps (i)–(iii): the donor's dispatcher performs get_state()
	// at this position in its serial queue. Passive backups mark no
	// position for it: a donor that dies before its manifest leaves the
	// transfer to be captured again elsewhere and later under the same id,
	// so only a checkpoint's own capture (handleCheckpoint) truncates a
	// backup's log.
	if donor, _ := g.Primary(); donor == n.addr {
		if h := n.hosts[env.Group]; h != nil && !h.recovering {
			h.q.Push(dispatchItem{kind: itemCapture, xferID: env.XferID})
		}
	}
}

func (n *Node) handleCheckpoint(seq uint64, env *replication.Envelope) {
	g, ok := n.table.Get(env.Group)
	if !ok || g.Spec.Props.Style == ftcorba.Active {
		return
	}
	// Recorded before any host-local checks: the marker's position is
	// agreed; whether this node hosts a replica is not.
	n.recorder.Record(obs.Event{
		Type: obs.EventCheckpoint, Seq: seq, Ordered: true,
		Group: env.Group, XferID: env.XferID,
	})
	h := n.hosts[env.Group]
	if h == nil || h.recovering {
		return
	}
	if g.IsPrimary(n.addr) {
		h.q.Push(dispatchItem{kind: itemCapture, xferID: env.XferID, checkpoint: true})
	} else {
		// Backups mark the capture position (see itemCheckpointMark).
		h.q.Push(dispatchItem{kind: itemCheckpointMark, xferID: env.XferID})
	}
}

// --- live consistency audit ---

// handleAudit evaluates the consistency audit at the envelope's agreed
// position. An AuditMark fixes an epoch (identified by the mark's own
// delivery seq): the collector learns who must report, and this node's
// replica — if it is a reporter — digests its state at exactly this point
// in its serial dispatch queue. An AuditReport feeds the collector's
// epoch-by-epoch matching. Members recovering at the mark's position are
// exempt from expectations until their manifest sync point; their held
// queues still digest at the correct logical position, so their late
// reports participate in matching and must agree.
func (n *Node) handleAudit(seq uint64, env *replication.Envelope) {
	if n.audit == nil {
		return
	}
	g, ok := n.table.Get(env.Group)
	if !ok {
		return
	}
	switch env.OpID {
	case replication.AuditMark:
		// Expected reporters at this position — deterministic from the
		// table: operational members; for passive styles only the primary
		// (backups legitimately hold checkpoint-stale state, so their
		// digests are not comparable).
		var expected []string
		for _, m := range g.Members {
			if m.State != replication.MemberOperational {
				continue
			}
			if g.Spec.Props.Style != ftcorba.Active && !g.IsPrimary(m.Node) {
				continue
			}
			expected = append(expected, m.Node)
		}
		n.noteAuditAlarms(n.audit.BeginEpoch(env.Group, seq, expected))
		report := g.HasMember(n.addr)
		if g.Spec.Props.Style != ftcorba.Active {
			report = g.IsPrimary(n.addr)
		}
		if h := n.hosts[env.Group]; report && h != nil {
			h.q.Push(dispatchItem{kind: itemAuditCapture, xferID: seq})
		}
	case replication.AuditReport:
		rec, err := replication.DecodeAuditRecord(env.Payload)
		if err != nil {
			return
		}
		n.noteAuditAlarms(n.audit.Observe(obs.AuditObservation{
			Group: env.Group, Node: env.Node, Epoch: rec.Epoch, Seq: seq,
			Digest: rec.Digest, LSN: rec.LSN, StateBytes: rec.StateBytes,
		}))
	}
}

// noteAuditAlarms surfaces collector alarms (the collector counts them):
// flight-recorder events, the alarms' only record (local class — a node
// that synchronized mid-stream holds a shorter matching history, so alarm
// sets may legitimately differ), and the log.
func (n *Node) noteAuditAlarms(alarms []obs.AuditAlarm) {
	for _, a := range alarms {
		n.recorder.Record(obs.Event{
			Type: "audit-" + a.Kind, Group: a.Group, Node: a.Node,
			Value: int64(a.Epoch), Detail: a.Detail,
		})
		n.logger().Warn("consistency audit alarm", "kind", a.Kind,
			"group", a.Group, "node", a.Node, "epoch", a.Epoch, "detail", a.Detail)
	}
}

// startMonitor begins pull-monitoring a hosted replica instance at its
// FaultMonitoringInterval (disabled when the interval is zero, and for
// log-only cold backups).
func (n *Node) startMonitor(h *replicaHost, interval time.Duration) {
	if interval <= 0 || h.replica == nil || h.monitor != nil {
		return
	}
	h.monitor = faultdetect.StartMonitor(h.group, n.addr, interval, h.probeAlive, n.faults)
}

// --- periodic manager duties ---

func (n *Node) sweep(now time.Time) {
	// Sample the dispatch backlog (loop-owned map, so sampled here rather
	// than at scrape time). It spikes during the enqueue-while-recovering
	// window of §3.3.
	depth := 0
	for _, h := range n.hosts {
		depth += h.q.Len()
	}
	n.dispatchDepth.Set(int64(depth))
	if !n.synced {
		return
	}
	for _, name := range n.table.Names() {
		g, _ := n.table.Get(name)
		props := g.Spec.Props

		// Live consistency audit: the primary's node multicasts the epoch
		// marker. Scheduling is local but evaluation is not — the mark's
		// delivery position defines the epoch identically everywhere.
		if n.audit != nil && g.IsPrimary(n.addr) {
			if due, ok := n.auditDue[name]; !ok {
				// First sweep as primary: full interval before the first
				// mark, so creation and promotion don't burst markers.
				n.auditDue[name] = now.Add(n.cfg.AuditInterval)
			} else if now.After(due) {
				n.auditDue[name] = now.Add(n.cfg.AuditInterval)
				n.counters.auditMarks.Add(1)
				n.multicast(&replication.Envelope{
					Kind:  replication.KAudit,
					Group: name,
					Node:  n.addr,
					OpID:  replication.AuditMark,
				})
			}
		}

		// Checkpoint scheduler (paper §5: frequency fixed per object at
		// deployment, extended with an every-N-messages trigger): the
		// primary's node multicasts the marker when its replica's log
		// policy says one is due — time elapsed or messages handled,
		// whichever fires first.
		if props.Style != ftcorba.Active && g.IsPrimary(n.addr) {
			if h := n.hosts[name]; h != nil && !h.recovering && h.log.CheckpointDue(now) {
				h.log.NoteCheckpoint(now)
				n.multicast(&replication.Envelope{
					Kind:   replication.KCheckpoint,
					Group:  name,
					XferID: n.nextXfer(),
				})
			}
		}

		// Resource Manager (paper §2): maintain MinimumNumberReplicas.
		if len(g.Members) < props.MinReplicas && !n.pendingAdd[name] {
			if target, ok := g.RecoveryTarget(n.view.Members); ok && target == n.addr {
				n.pendingAdd[name] = true
				n.multicast(&replication.Envelope{
					Kind:   replication.KAddMember,
					Group:  name,
					Node:   n.addr,
					XferID: n.nextXfer(),
				})
			}
		}
	}
}
