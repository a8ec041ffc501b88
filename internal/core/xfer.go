package core

import (
	"fmt"
	"time"

	"eternal/internal/ftcorba"
	"eternal/internal/obs"
	"eternal/internal/recovery"
	"eternal/internal/replication"
)

// This file is the state-transfer pipeline, the one route every set_state
// of Figure 5 takes, recovery and passive checkpoint alike: a stream of
// KStateChunk envelopes — paced so foreground invocations interleave with
// them on the token ring — closed by one totally-ordered KStateManifest,
// the transfer's sync point: every node marks the recovering members
// operational at the manifest's position, and only the local assembly of
// the chunk payloads may lag behind it (cured by retransmit-by-index). A
// bundle that fits one chunk is the one-chunk case of the same stream.

const (
	// xferRetryInterval is how often the sweep re-requests chunks still
	// missing after a transfer's manifest.
	xferRetryInterval = 250 * time.Millisecond
	// xferMaxRetries bounds those re-requests; past it the transfer is
	// abandoned (and, if it was curing this node's replica, the replica
	// removes itself so the Resource Manager relaunches it under a fresh
	// transfer id).
	xferMaxRetries = 8
	// xferOrphanAge is when a manifest-less assembly (donor died before
	// its manifest) is garbage collected.
	xferOrphanAge = 10 * time.Second
	// xferCacheMax bounds the donor-side retransmit cache (transfers, not
	// bytes; each entry lives until evicted by newer transfers).
	xferCacheMax = 8
)

// outboundXfer is one unit of work for the streaming goroutine: a full
// transfer (all chunks, then the manifest) or a retransmission (the
// listed indexes only).
type outboundXfer struct {
	group    string
	xferID   uint64
	chunks   [][]byte
	manifest []byte   // nil for retransmissions
	indices  []uint32 // nil = all chunks in order
}

// cachedXfer is a completed outbound transfer kept for retransmit-by-index.
type cachedXfer struct {
	group  string
	chunks [][]byte
}

// inboundXfer is one chunked transfer being assembled on the receiving
// side. It is loop-owned.
type inboundXfer struct {
	group   string
	donor   string
	asm     *recovery.Assembly
	started time.Time
	// Routing decided at the manifest's ordered position: cure completes
	// this node's recovering host; ckpt applies the bundle to an
	// operational passive backup.
	manifested bool
	cure       bool
	ckpt       bool
	retries    int
	lastNak    time.Time
}

func (n *Node) stopped() bool {
	select {
	case <-n.stopCh:
		return true
	default:
		return false
	}
}

// --- donor side ---

// sendChunked ships an encoded bundle as a paced chunk stream closed by a
// manifest. Called from a replica dispatcher (capture); the actual
// multicasts happen on the node's single streaming goroutine, whose FIFO
// order guarantees each transfer's manifest follows its chunks and that
// concurrent captures do not interleave their streams.
func (n *Node) sendChunked(group string, xferID uint64, enc []byte) {
	chunkBytes := n.cfg.StateChunkBytes // <= 0: recovery.DefaultChunkBytes
	chunks := recovery.SplitChunks(enc, chunkBytes)
	manifest := recovery.NewManifest(enc, chunks, chunkBytes)
	n.cacheOutbound(group, xferID, chunks)
	n.xferQ.push(outboundXfer{
		group:    group,
		xferID:   xferID,
		chunks:   chunks,
		manifest: manifest.Encode(),
	})
}

// cacheOutbound remembers a transfer's chunks for retransmit-by-index. A
// new transfer for a group evicts the group's older entries (their
// receivers are being superseded); a global cap bounds the rest.
func (n *Node) cacheOutbound(group string, xferID uint64, chunks [][]byte) {
	n.xferCacheMu.Lock()
	defer n.xferCacheMu.Unlock()
	for i := 0; i < len(n.xferCacheOrder); {
		id := n.xferCacheOrder[i]
		if c, ok := n.xferCache[id]; ok && c.group == group {
			delete(n.xferCache, id)
			n.xferCacheOrder = append(n.xferCacheOrder[:i], n.xferCacheOrder[i+1:]...)
			continue
		}
		i++
	}
	for len(n.xferCacheOrder) >= xferCacheMax {
		delete(n.xferCache, n.xferCacheOrder[0])
		n.xferCacheOrder = n.xferCacheOrder[1:]
	}
	n.xferCache[xferID] = &cachedXfer{group: group, chunks: chunks}
	n.xferCacheOrder = append(n.xferCacheOrder, xferID)
}

// xferStreamer is the node's state-transfer egress goroutine.
func (n *Node) xferStreamer() {
	for {
		x, ok := n.xferQ.pop()
		if !ok {
			return
		}
		if n.stopped() {
			return
		}
		n.streamTransfer(x)
	}
}

// streamTransfer multicasts a transfer's chunks under the token-aware
// budget — at most StateChunksPerToken chunk multicasts per observed
// token rotation — then its manifest. The budget is what keeps the
// donor's totem pending queue shallow, so foreground envelopes submitted
// by this node interleave with the stream instead of queueing behind the
// entire state.
func (n *Node) streamTransfer(x outboundXfer) {
	budget := n.cfg.StateChunksPerToken
	rotation := n.proc.Stats().TokenRotations
	sent := 0
	resend := x.manifest == nil
	emit := func(idx uint32) bool {
		if sent >= budget {
			stalled := false
			for {
				if n.stopped() {
					return false
				}
				// Two conditions before the next batch: the prior batch has
				// fully left this node's sequencing queue (so batches never
				// bunch onto one token hold), and the token has rotated
				// since (so foreground traffic had a full cycle to slip
				// in between).
				if n.proc.PendingChunks() == 0 {
					if cur := n.proc.Stats().TokenRotations; cur != rotation {
						rotation = cur
						sent = 0
						break
					}
				}
				if !stalled {
					stalled = true
					n.counters.stateChunkStalls.Inc()
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		payload := x.chunks[idx]
		n.multicast(&replication.Envelope{
			Kind:    replication.KStateChunk,
			Group:   x.group,
			Node:    n.addr,
			OpID:    idx,
			XferID:  x.xferID,
			Payload: payload,
		})
		sent++
		if resend {
			n.counters.stateChunksResent.Inc()
		} else {
			n.counters.stateChunksSent.Inc()
		}
		n.counters.stateChunkBytes.Add(uint64(len(payload)))
		return true
	}
	if x.indices != nil {
		for _, i := range x.indices {
			if int(i) >= len(x.chunks) {
				continue
			}
			if !emit(i) {
				return
			}
		}
	} else {
		for i := range x.chunks {
			if !emit(uint32(i)) {
				return
			}
		}
	}
	if x.manifest != nil {
		n.multicast(&replication.Envelope{
			Kind:    replication.KStateManifest,
			Group:   x.group,
			Node:    n.addr,
			XferID:  x.xferID,
			Payload: x.manifest,
		})
	}
}

// handleStateRetransmit serves a receiver's missing-chunk request from
// the donor-side cache. Only the node that originated the transfer holds
// it cached, so exactly one node answers; the response is a multicast, so
// every assembling receiver benefits.
func (n *Node) handleStateRetransmit(env *replication.Envelope) {
	if hook, ok := n.chunkHook.Load().(func(*replication.Envelope) bool); ok && hook != nil {
		// The test filter also covers NAKs, so asymmetric-partition
		// recovery (chunks arrive, retransmit requests never do) is
		// reproducible at the replication layer.
		if !hook(env) {
			return
		}
	}
	idx, err := recovery.DecodeIndexList(env.Payload)
	if err != nil || len(idx) == 0 {
		return
	}
	n.xferCacheMu.Lock()
	c := n.xferCache[env.XferID]
	n.xferCacheMu.Unlock()
	if c == nil {
		return
	}
	n.xferQ.push(outboundXfer{
		group:   c.group,
		xferID:  env.XferID,
		chunks:  c.chunks,
		indices: idx,
	})
}

// --- receiving side (delivery-loop handlers) ---

// inbound returns the assembly of the transfer a chunk or manifest
// belongs to, opening it on the transfer's first envelope.
func (n *Node) inbound(env *replication.Envelope) *inboundXfer {
	x := n.inXfers[env.XferID]
	if x == nil {
		x = &inboundXfer{
			group:   env.Group,
			donor:   env.Node,
			asm:     recovery.NewAssembly(),
			started: time.Now(),
		}
		n.inXfers[env.XferID] = x
	}
	return x
}

// handleStateChunk stores one streamed chunk. Chunks are local payload
// delivery, not state-machine transitions: nothing in the replicated
// tables moves until the manifest.
func (n *Node) handleStateChunk(env *replication.Envelope) {
	if hook, ok := n.chunkHook.Load().(func(*replication.Envelope) bool); ok && hook != nil {
		if !hook(env) {
			return
		}
	}
	if _, ok := n.table.Get(env.Group); !ok {
		return
	}
	x := n.inbound(env)
	if err := x.asm.AddChunk(int(env.OpID), env.Payload); err != nil {
		n.counters.stateChunksRejected.Inc()
		return
	}
	if x.manifested && x.asm.Complete() {
		n.finishInbound(env.XferID, x)
	}
}

// handleStateManifest is the transfer's sync point (Figure 5 step v). The
// replicated state machine transitions here, identically on every node:
// every recovering member of the group becomes operational at this
// position. What may lag is purely local — if this node's copy of the
// chunk payloads is incomplete, it requests the missing indexes and
// applies the bundle when they arrive; invocations delivered meanwhile
// queue behind the pending state in the replica's dispatcher, preserving
// the Figure 5 ordering.
func (n *Node) handleStateManifest(seq uint64, env *replication.Envelope) {
	g, ok := n.table.Get(env.Group)
	if !ok {
		return
	}
	m, err := recovery.DecodeManifest(env.Payload)
	if err != nil {
		return
	}
	// Ordered at the manifest position on every node (Value: encoded
	// bundle bytes).
	n.recorder.Record(obs.Event{
		Type: obs.EventSetState, Seq: seq, Ordered: true,
		Group: env.Group, Node: env.Node, XferID: env.XferID,
		Value:  int64(m.TotalBytes),
		Detail: fmt.Sprintf("chunks=%d", m.Count()),
	})
	x := n.inbound(env)
	missing, dropped := x.asm.SetManifest(m)
	if dropped > 0 {
		n.counters.stateChunksRejected.Add(uint64(dropped))
	}
	x.manifested = true

	// Every recovering member is cured by this state (they all held their
	// queues from their own synchronization points; duplicate suppression
	// makes the replayed overlap idempotent).
	for _, member := range g.Members {
		if member.State != replication.MemberRecovering {
			continue
		}
		if err := n.table.MarkOperational(env.Group, member.Node); err != nil {
			continue
		}
		if member.Node == n.addr {
			if h := n.hosts[env.Group]; h != nil && h.recovering {
				h.recovering = false
				x.cure = true
				// The replica is (about to be) operational: begin pull
				// monitoring it. The dispatcher itself keeps waiting on
				// stateCh until the assembly completes.
				n.startMonitor(h, g.Spec.Props.FaultMonitoringInterval)
			}
		} else {
			n.signal(recoveredKey(env.Group, member.Node))
		}
		n.reconcile(env.Group)
	}
	// Operational passive backups absorb the checkpoint once assembled.
	if env.Node != n.addr && g.Spec.Props.Style != ftcorba.Active && !g.IsPrimary(n.addr) {
		if h := n.hosts[env.Group]; h != nil && !h.recovering {
			x.ckpt = true
		}
	}

	if !x.cure && !x.ckpt {
		// Nothing on this node consumes the bundle (e.g. the donor itself,
		// or an active member that was never recovering).
		delete(n.inXfers, env.XferID)
		return
	}
	if len(missing) > 0 {
		n.requestMissing(env.XferID, x, missing)
		return
	}
	n.finishInbound(env.XferID, x)
}

// requestMissing multicasts a retransmit-by-index request for a
// transfer's absent chunks.
func (n *Node) requestMissing(xferID uint64, x *inboundXfer, missing []uint32) {
	x.lastNak = time.Now()
	n.counters.stateRetransmitReqs.Inc()
	n.recorder.Record(obs.Event{
		Type: obs.EventStateNak, Group: x.group, Node: n.addr,
		XferID: xferID, Value: int64(len(missing)),
	})
	n.multicast(&replication.Envelope{
		Kind:    replication.KStateRetransmit,
		Group:   x.group,
		Node:    n.addr,
		XferID:  xferID,
		Payload: recovery.EncodeIndexList(missing),
	})
}

// finishInbound decodes a completed assembly and routes the bundle: to
// the recovering host's dispatcher (cure) or, as a checkpoint, to an
// operational passive backup (warm: into the instance; cold: into the
// log). Routing conditions that could have changed since the manifest (a
// backup promoted to primary must not roll itself back to the checkpoint)
// are re-checked here against the current table.
func (n *Node) finishInbound(xferID uint64, x *inboundXfer) {
	delete(n.inXfers, xferID)
	bundle, err := recovery.DecodeBundle(x.asm.Bytes())
	if err != nil {
		return
	}
	g, ok := n.table.Get(x.group)
	if !ok {
		return
	}
	h := n.hosts[x.group]
	if h == nil {
		return
	}
	if x.cure {
		select {
		case h.stateCh <- stateDelivery{bundle: bundle, xferID: xferID}:
		default:
		}
	}
	if x.ckpt && !h.recovering && !g.IsPrimary(n.addr) {
		h.q.push(dispatchItem{kind: itemApplyCheckpoint, bundle: bundle, xferID: xferID})
	}
}

// sweepXfers is the per-tick maintenance of inbound assemblies: re-issue
// retransmit requests for post-manifest stragglers, abandon transfers
// whose donor stopped answering (removing our own half-cured replica so
// the Resource Manager relaunches it under a fresh transfer id), and
// garbage-collect orphaned pre-manifest assemblies.
func (n *Node) sweepXfers(now time.Time) {
	for id, x := range n.inXfers {
		if _, ok := n.table.Get(x.group); !ok {
			delete(n.inXfers, id)
			continue
		}
		if !x.manifested {
			if now.Sub(x.started) > xferOrphanAge {
				delete(n.inXfers, id)
			}
			continue
		}
		if now.Sub(x.lastNak) < xferRetryInterval {
			continue
		}
		missing := x.asm.Missing()
		if len(missing) == 0 {
			n.finishInbound(id, x)
			continue
		}
		if x.retries >= xferMaxRetries {
			delete(n.inXfers, id)
			n.recorder.Record(obs.Event{
				Type: obs.EventStateAbort, Group: x.group, Node: n.addr,
				XferID: id, Value: int64(len(missing)),
				Detail: fmt.Sprintf("donor=%s retries=%d", x.donor, x.retries),
			})
			n.logger().Info("state transfer abandoned", "group", x.group,
				"xfer", id, "missing", len(missing))
			if x.cure {
				// Our replica is marked operational in the table but never
				// received its state: remove it so the Resource Manager
				// relaunches a clean one under a new transfer id.
				n.multicast(&replication.Envelope{
					Kind:  replication.KRemoveMember,
					Group: x.group,
					Node:  n.addr,
				})
			}
			continue
		}
		x.retries++
		n.requestMissing(id, x, missing)
	}
}

// setChunkHook installs a test-only filter consulted for every received
// KStateChunk before assembly and every received KStateRetransmit before
// the donor serves it (distinguish by env.Kind): returning false drops
// the message; the hook may mutate the envelope payload to simulate
// corruption. Pass nil to remove.
func (n *Node) setChunkHook(hook func(*replication.Envelope) bool) {
	n.chunkHook.Store(hook)
}
