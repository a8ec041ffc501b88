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
// KStateChunk envelopes — submitted to totem's bulk lane, which lets
// StateChunksPerToken of them onto the ring per token visit, behind the
// foreground invocations queued there and behind the replies the donor's
// node itself owes to those, for which the token waits before the burst
// instead of a rotation after it — closed by one totally-ordered
// KStateManifest, the transfer's sync point: every node marks the
// recovering members operational at the manifest's position, and only the
// local assembly of the chunk payloads may lag behind it (cured by
// retransmit-by-index). A bundle that fits one chunk is the one-chunk case
// of the same stream.

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

// --- donor side ---

// sendChunked ships an encoded bundle as a chunk stream closed by a
// manifest. Called from a replica dispatcher (capture). Everything is
// handed to totem at once: the bulk lane is FIFO, so the manifest follows
// its chunks, and it is the lane — at the token, where the pacing
// decision belongs — that meters the stream onto the ring.
func (n *Node) sendChunked(group string, xferID uint64, enc []byte) {
	chunkBytes := n.cfg.StateChunkBytes // <= 0: recovery.DefaultChunkBytes
	chunks := recovery.SplitChunks(enc, chunkBytes)
	manifest := recovery.NewManifest(enc, chunks, chunkBytes)
	n.cacheOutbound(group, xferID, chunks)
	for i, payload := range chunks {
		n.sendChunk(group, xferID, uint32(i), payload, n.counters.stateChunksSent)
	}
	n.multicast(&replication.Envelope{
		Kind:    replication.KStateManifest,
		Group:   group,
		Node:    n.addr,
		XferID:  xferID,
		Payload: manifest.Encode(),
	})
}

// sendChunk submits chunk idx of a transfer, counting it as a first
// transmission or a retransmission.
func (n *Node) sendChunk(group string, xferID uint64, idx uint32, payload []byte, count *obs.Counter) {
	n.multicast(&replication.Envelope{
		Kind:    replication.KStateChunk,
		Group:   group,
		Node:    n.addr,
		OpID:    idx,
		XferID:  xferID,
		Payload: payload,
	})
	count.Inc()
	n.counters.stateChunkBytes.Add(uint64(len(payload)))
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
	for _, i := range idx {
		if int(i) < len(c.chunks) {
			n.sendChunk(c.group, env.XferID, i, c.chunks[i], n.counters.stateChunksResent)
		}
	}
}

// --- receiving side (delivery-loop handlers) ---

// inbound returns the assembly of the transfer a chunk or manifest
// belongs to, opening it on the transfer's first envelope (stamped, like a
// retransmit request, with the loop's clock, which is what sweepXfers ages
// them by).
func (n *Node) inbound(env *replication.Envelope) *inboundXfer {
	x := n.inXfers[env.XferID]
	if x == nil {
		x = &inboundXfer{
			group:   env.Group,
			donor:   env.Node,
			asm:     recovery.NewAssembly(),
			started: n.now,
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
	x.lastNak = n.now
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
