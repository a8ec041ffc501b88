package core

import (
	"sync"

	"eternal/internal/giop"
	"eternal/internal/interceptor"
	"eternal/internal/obs"
	"eternal/internal/recovery"
	"eternal/internal/replication"
)

// clientEntity is the client-side Replication Mechanisms state for one
// logical client (a plain client process, or the client role of a
// replicated object — paper footnote 2: middle tiers play both roles).
//
// For each connection the entity's ORB opens to a replicated group, the
// entity keeps an egress handler that the ORB calls with each request, on
// the invoking goroutine. It translates the ORB's local request_ids onto
// the group's logical request_id counter (paper §4.2.1), and multicasts
// each request in the total order. Incoming replies are translated back
// and handed to the ORB on the node's delivery loop; duplicate replies
// from replicated servers are suppressed first (paper §2.1).
type clientEntity struct {
	node *Node
	name string

	mu    sync.Mutex
	conns map[replication.ConnID]*egressConn
	// dialSeq numbers this entity's connections per target group, so that
	// deterministic client replicas on different nodes derive identical
	// logical connection ids.
	dialSeq map[string]uint64
	// pendingOffsets holds transferred client-side ORB state (the logical
	// next request id per connection) for connections the recovered
	// replica has not opened yet.
	pendingOffsets map[replication.ConnID]uint32
	// replyFilter suppresses duplicate replies per connection.
	replyFilter *replication.DupFilter
	// early holds replies ordered before this node's ORB sent their
	// request: a twin replica of this client ran ahead and the group
	// answered it. Written at once, such a reply would reach an ORB not
	// waiting for it and be dropped, and the request, when it came, would
	// be suppressed as a duplicate. It waits for the request instead.
	early map[earlyKey]*replication.Envelope

	closed bool
}

type egressConn struct {
	entity *clientEntity
	id     replication.ConnID
	conn   *interceptor.Conn // the diverted connection, toward the ORB

	// The counters below are guarded by the entity's mu.

	// offset maps the ORB's local request ids onto the group's logical
	// counter: logical = local + offset. Zero for replicas present since
	// the connection opened; computed from transferred ORB state for
	// recovered replicas.
	offset uint32
	// localNext is the next local id the ORB will assign on this
	// connection (observed from the requests it sends).
	localNext uint32
	// nextLogical is the next logical id this connection will assign —
	// the per-connection ORB-level state the paper transfers (§4.2.1).
	nextLogical uint32
}

// earlyKey names a reply by its connection and logical request id.
type earlyKey struct {
	conn replication.ConnID
	op   uint32
}

// maxEarlyReplies bounds an entity's early replies. Past it a reply is
// dropped: a replica that far behind its twin times out.
const maxEarlyReplies = 256

func newClientEntity(n *Node, name string) *clientEntity {
	return &clientEntity{
		node:           n,
		name:           name,
		conns:          make(map[replication.ConnID]*egressConn),
		dialSeq:        make(map[string]uint64),
		pendingOffsets: make(map[replication.ConnID]uint32),
		replyFilter:    replication.NewDupFilter(),
		early:          make(map[earlyKey]*replication.Envelope),
	}
}

// accept is the interceptor.AcceptFunc for this entity: the ORB dialed a
// replicated group, and the connection's requests go to forwardRequest.
func (ce *clientEntity) accept(group string, c *interceptor.Conn) func(*giop.Message) {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	if ce.closed {
		return nil
	}
	// A recovered replica re-dials the connections its group already
	// holds: transferred ORB state (pendingOffsets) names those logical
	// connections, so a fresh dial binds to the lowest pending one rather
	// than minting a new id — keeping the recovered replica's invocations
	// paired with its twins'.
	var id replication.ConnID
	bound := false
	for pid := range ce.pendingOffsets {
		if pid.Group == group && (!bound || pid.Seq < id.Seq) {
			id, bound = pid, true
		}
	}
	if !bound {
		seq := ce.dialSeq[group]
		ce.dialSeq[group] = seq + 1
		id = replication.ConnID{Client: ce.name, Group: group, Seq: seq}
	}
	ec := &egressConn{entity: ce, id: id, conn: c}
	if off, ok := ce.pendingOffsets[id]; ok {
		ec.offset = off
		ec.nextLogical = off
		delete(ce.pendingOffsets, id)
		if id.Seq >= ce.dialSeq[group] {
			ce.dialSeq[group] = id.Seq + 1
		}
	}
	if old, ok := ce.conns[id]; ok {
		old.conn.Hangup() // the previous incarnation's connection is dead
	}
	ce.conns[id] = ec
	if ec.nextLogical != 0 {
		ce.forgetPassedLocked()
	}
	return ec.forwardRequest
}

// forwardRequest is the connection's egress handler. The ORB calls it
// with each message it sends, on the invoking goroutine and in request-id
// order, and it multicasts each request. Anything else the client ORB
// sends (it sends only requests) has nothing to convey.
func (ec *egressConn) forwardRequest(msg *giop.Message) {
	local, twoWay, err := giop.PeekRequest(msg)
	if err != nil {
		return
	}
	ce := ec.entity
	ce.mu.Lock()
	logical := local + ec.offset
	if replication.After(local+1, ec.localNext) {
		ec.localNext = local + 1
	}
	if replication.After(logical+1, ec.nextLogical) {
		ec.nextLogical = logical + 1
	}
	key := earlyKey{ec.id, logical}
	answer, answered := ce.early[key]
	delete(ce.early, key)
	ce.mu.Unlock()
	if answered {
		// The group has executed it already: a copy sent now would be
		// suppressed as a duplicate.
		ec.writeReply(answer, local)
		return
	}

	wire := msg
	if logical != local {
		if wire, err = interceptor.RewriteRequestID(msg, logical); err != nil {
			return
		}
	}
	node := ce.node
	traceID := replication.TraceID(ec.id, logical)
	node.spans.Begin(traceID, ec.id.Group)
	env := &replication.Envelope{
		Kind:    replication.KRequest,
		Group:   ec.id.Group,
		Conn:    ec.id,
		OpID:    logical,
		Oneway:  !twoWay,
		Trace:   traceID,
		Payload: wire.Marshal(),
	}
	node.spans.Mark(traceID, obs.SpanMarshalled)
	node.multicast(env)
}

// deliverReply routes a totally-ordered reply to the local ORB, after
// duplicate suppression and logical→local request_id translation. Called
// from the node's delivery loop.
func (ce *clientEntity) deliverReply(env *replication.Envelope) {
	ce.mu.Lock()
	if !ce.replyFilter.FirstDelivery(env.Conn, env.OpID) {
		ce.mu.Unlock()
		ce.node.counters.duplicateReplies.Add(1)
		return // duplicate response from another server replica
	}
	ec, sent, local := ce.conns[env.Conn], false, uint32(0)
	if ec != nil {
		sent, local = replication.After(ec.nextLogical, env.OpID), env.OpID-ec.offset
	}
	if !sent && len(ce.early) < maxEarlyReplies {
		ce.early[earlyKey{env.Conn, env.OpID}] = env
	}
	ce.mu.Unlock()
	if sent {
		ec.writeReply(env, local)
	}
}

// forgetPassedLocked drops the early replies to ids their connection has
// moved past, whose requests will never come: transferred ORB state moves
// a recovered replica's connection on to the group's next id. Caller holds
// ce.mu.
func (ce *clientEntity) forgetPassedLocked() {
	for k := range ce.early {
		if ec := ce.conns[k.conn]; ec != nil && replication.After(ec.nextLogical, k.op) {
			delete(ce.early, k)
		}
	}
}

// writeReply hands the ORB the reply to its request local, on the
// caller's goroutine: the node's delivery loop, or the ORB's own for an
// early reply.
func (ec *egressConn) writeReply(env *replication.Envelope, local uint32) {
	node := ec.entity.node
	msg, err := giop.ParseMessage(env.Payload)
	if err != nil {
		return
	}
	if local != env.OpID {
		if msg, err = interceptor.RewriteReplyID(msg, local); err != nil {
			return
		}
	}
	if ec.conn.Deliver(msg) {
		node.counters.repliesDelivered.Add(1)
	}
	if latency, ok := node.spans.Finish(env.Trace); ok {
		node.invocationHist.ObserveDuration(latency)
	}
}

// snapshotClientConns captures this entity's per-connection logical
// counters — the client-side ORB-level state piggybacked on a state
// transfer (paper §4.2.1).
func (ce *clientEntity) snapshotClientConns() []recovery.ClientConnState {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	out := make([]recovery.ClientConnState, 0, len(ce.conns))
	for id, ec := range ce.conns {
		out = append(out, recovery.ClientConnState{Conn: id, NextRequestID: ec.nextLogical})
	}
	return out
}

// installClientConns applies transferred client-side ORB state on a
// recovering node: connections the fresh replica opens later pick up
// their logical offset here.
func (ce *clientEntity) installClientConns(states []recovery.ClientConnState, replyFilter map[replication.ConnID]uint32) {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	for _, st := range states {
		if ec, ok := ce.conns[st.Conn]; ok {
			// A surviving connection (the recovered replica shares its
			// node's ORB): align its future logical ids with the group's
			// counter, accounting for the local ids already consumed —
			// unless the local counter is already past it, in the
			// serial order of ids that wrap.
			if !replication.After(ec.localNext, st.NextRequestID) {
				ec.offset = st.NextRequestID - ec.localNext
				ec.nextLogical = st.NextRequestID
			}
		} else {
			ce.pendingOffsets[st.Conn] = st.NextRequestID
		}
	}
	ce.forgetPassedLocked()
	if replyFilter != nil {
		ce.replyFilter.Restore(replyFilter)
	}
}

func (ce *clientEntity) closeAll() {
	ce.mu.Lock()
	ce.closed = true
	conns := make([]*egressConn, 0, len(ce.conns))
	for _, ec := range ce.conns {
		conns = append(conns, ec)
	}
	ce.mu.Unlock()
	for _, ec := range conns {
		ec.conn.Hangup()
	}
}
