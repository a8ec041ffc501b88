package core

import (
	"fmt"

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
// recovering members operational at the manifest's position. A bundle that
// fits one chunk is the one-chunk case of the same stream.
//
// The transfer trusts Totem for its reliability: the donor's bulk lane is
// FIFO and the total order drops nothing, so the donor's chunks reach every
// node in index order, ahead of their manifest. A node whose copy of the
// stream broke anyway (a tombstoned chunk) abandons the transfer at the
// manifest instead of asking for pieces of it again.

// inboundXfer is the transfer a donor has open at this node: its chunks
// so far, in index order. It is loop-owned.
type inboundXfer struct {
	xferID uint64
	asm    *recovery.Assembly
}

// --- donor side ---

// sendChunked ships an encoded bundle as a chunk stream closed by a
// manifest. Called from a replica dispatcher (capture). Everything is
// handed to totem at once, under sendMu so that two groups' dispatchers
// never interleave their streams (a submission returns once the processor
// stops, so the lock is not held for good): the bulk lane is FIFO, so the
// manifest follows its chunks, and it is the lane — at the token, where the
// pacing decision belongs — that meters the stream onto the ring.
func (n *Node) sendChunked(group string, xferID uint64, enc []byte) {
	chunkBytes := n.cfg.StateChunkBytes // <= 0: recovery.DefaultChunkBytes
	chunks := recovery.SplitChunks(enc, chunkBytes)
	manifest := recovery.NewManifest(enc, chunks, chunkBytes)
	n.sendMu.Lock()
	defer n.sendMu.Unlock()
	for i, payload := range chunks {
		n.multicast(&replication.Envelope{
			Kind:    replication.KStateChunk,
			Group:   group,
			Node:    n.addr,
			OpID:    uint32(i),
			XferID:  xferID,
			Payload: payload,
		})
		n.counters.stateChunksSent.Inc()
		n.counters.stateChunkBytes.Add(uint64(len(payload)))
	}
	n.multicast(&replication.Envelope{
		Kind:    replication.KStateManifest,
		Group:   group,
		Node:    n.addr,
		XferID:  xferID,
		Payload: manifest.Encode(),
	})
}

// --- receiving side (delivery-loop handlers) ---

// handleStateChunk appends one streamed chunk to its donor's open
// transfer; a chunk of a new transfer retires the donor's previous one.
// Chunks are local payload delivery, not state-machine transitions:
// nothing in the replicated tables moves until the manifest.
func (n *Node) handleStateChunk(donor string, env *replication.Envelope) {
	if hook, ok := n.chunkHook.Load().(func(*replication.Envelope) bool); ok && hook != nil {
		if !hook(env) {
			return
		}
	}
	if _, ok := n.table.Get(env.Group); !ok {
		return
	}
	x := n.inXfers[donor]
	if x == nil || x.xferID != env.XferID {
		x = &inboundXfer{xferID: env.XferID, asm: recovery.NewAssembly()}
		n.inXfers[donor] = x
	}
	if err := x.asm.AddChunk(int(env.OpID), env.Payload); err != nil {
		n.counters.stateChunksRejected.Inc()
	}
}

// handleStateManifest is the transfer's sync point (Figure 5 step v). The
// replicated state machine transitions here, identically on every node:
// every recovering member of the group becomes operational at this
// position. What is local is whether this node's copy of the stream
// verifies: if it does, the bundle goes to its consumer — the recovering
// replica's dispatcher, or a passive backup's queue as a checkpoint — and
// invocations delivered after the manifest queue behind it, preserving the
// Figure 5 ordering; if not, the transfer is abandoned right here.
func (n *Node) handleStateManifest(seq uint64, donor string, env *replication.Envelope) {
	x := n.inXfers[donor]
	delete(n.inXfers, donor) // the manifest closes the donor's transfer
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
	h := n.hosts[env.Group]
	// Every recovering member is cured by this state (they all held their
	// queues from their own synchronization points; duplicate suppression
	// makes the replayed overlap idempotent).
	cure := false
	for _, member := range g.Members {
		if member.State != replication.MemberRecovering {
			continue
		}
		if err := n.table.MarkOperational(env.Group, member.Node); err != nil {
			continue
		}
		if member.Node == n.addr {
			if h != nil && h.recovering {
				h.recovering = false
				cure = true
				// The replica is (about to be) operational: begin pull
				// monitoring it. The dispatcher itself waits on stateCh for
				// the bundle.
				n.startMonitor(h, g.Spec.Props.FaultMonitoringInterval)
			}
		} else {
			n.signal(recoveredKey(env.Group, member.Node))
		}
		n.reconcile(env.Group)
	}
	// Operational passive backups absorb the checkpoint.
	ckpt := env.Node != n.addr && g.Spec.Props.Style != ftcorba.Active && !g.IsPrimary(n.addr) &&
		h != nil && !h.recovering
	if !cure && !ckpt {
		// Nothing on this node consumes the bundle (e.g. the donor itself,
		// or an active member that was never recovering).
		return
	}
	asm := recovery.NewAssembly() // no chunk of this transfer reached us
	if x != nil && x.xferID == env.XferID {
		asm = x.asm
	}
	var bundle *recovery.Bundle
	if err = asm.SetManifest(m); err == nil {
		bundle, err = recovery.DecodeBundle(asm.Bytes())
	}
	if err != nil {
		n.abandonInbound(seq, donor, env, cure, err)
		return
	}
	if cure {
		select {
		case h.stateCh <- stateDelivery{bundle: bundle, xferID: env.XferID}:
		default:
		}
	}
	if ckpt {
		h.q.push(dispatchItem{kind: itemApplyCheckpoint, bundle: bundle, xferID: env.XferID})
	}
}

// abandonInbound gives up a transfer whose stream did not verify at its
// manifest. A checkpoint is simply skipped — the next one covers the
// backup. A cure leaves this node's replica marked operational without its
// state, so the replica removes itself and the Resource Manager relaunches
// it under a fresh transfer id.
func (n *Node) abandonInbound(seq uint64, donor string, env *replication.Envelope, cure bool, err error) {
	n.recorder.Record(obs.Event{
		Type: obs.EventStateAbort, Seq: seq, Group: env.Group, Node: n.addr,
		XferID: env.XferID, Detail: fmt.Sprintf("donor=%s cure=%t: %v", donor, cure, err),
	})
	n.logger().Info("state transfer abandoned", "group", env.Group,
		"xfer", env.XferID, "donor", donor, "cure", cure, "err", err)
	if cure {
		n.multicast(&replication.Envelope{
			Kind:  replication.KRemoveMember,
			Group: env.Group,
			Node:  n.addr,
		})
	}
}

// setChunkHook installs a test-only filter consulted for every received
// KStateChunk before assembly: returning false drops the chunk; the hook
// may mutate the envelope payload to simulate corruption. Pass nil to
// remove.
func (n *Node) setChunkHook(hook func(*replication.Envelope) bool) {
	n.chunkHook.Store(hook)
}
