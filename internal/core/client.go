package core

import (
	"bytes"
	"net"
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
// entity runs an egress proxy that parses the ORB's outgoing IIOP stream,
// translates the ORB's local request_ids onto the group's logical
// request_id counter (paper §4.2.1), and multicasts each request in the
// total order. Incoming replies are translated back and written into the
// ORB's connection; duplicate replies from replicated servers are
// suppressed first (paper §2.1).
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

	closed bool
}

type egressConn struct {
	entity *clientEntity
	id     replication.ConnID
	mech   net.Conn // the mechanisms' end of the diverted connection

	mu sync.Mutex
	// offset maps the ORB's local request ids onto the group's logical
	// counter: logical = local + offset. Zero for replicas present since
	// the connection opened; computed from transferred ORB state for
	// recovered replicas.
	offset uint32
	// localNext is the next local id the ORB will assign on this
	// connection (observed from its outgoing stream).
	localNext uint32
	// nextLogical is the next logical id this connection will assign —
	// the per-connection ORB-level state the paper transfers (§4.2.1).
	nextLogical uint32
}

func newClientEntity(n *Node, name string) *clientEntity {
	return &clientEntity{
		node:           n,
		name:           name,
		conns:          make(map[replication.ConnID]*egressConn),
		dialSeq:        make(map[string]uint64),
		pendingOffsets: make(map[replication.ConnID]uint32),
		replyFilter:    replication.NewDupFilter(),
	}
}

// accept is the interceptor.AcceptFunc for this entity: the ORB dialed a
// replicated group and we hold the far end of the diverted connection.
func (ce *clientEntity) accept(group string, mech net.Conn) {
	ce.mu.Lock()
	if ce.closed {
		ce.mu.Unlock()
		mech.Close()
		return
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
	ec := &egressConn{entity: ce, id: id, mech: mech}
	if off, ok := ce.pendingOffsets[id]; ok {
		ec.offset = off
		ec.nextLogical = off
		delete(ce.pendingOffsets, id)
		if id.Seq >= ce.dialSeq[group] {
			ce.dialSeq[group] = id.Seq + 1
		}
	}
	if old, ok := ce.conns[id]; ok {
		old.mech.Close() // the previous incarnation's pipe is dead
	}
	ce.conns[id] = ec
	ce.mu.Unlock()
	go ec.run()
}

// run parses the ORB's outgoing stream and multicasts each message.
func (ec *egressConn) run() {
	r := giop.NewReader(ec.mech)
	for {
		msg, err := r.Next()
		if err != nil {
			return // ORB closed the connection
		}
		switch msg.Type {
		case giop.MsgRequest:
			ec.forwardRequest(msg)
		case giop.MsgLocateRequest:
			// Answer locally: the group exists by construction.
			if lr, err := giop.ParseLocateRequest(msg); err == nil {
				rep := giop.EncodeLocateReply(msg.Version, msg.Order,
					&giop.LocateReplyHeader{RequestID: lr.RequestID, Status: giop.LocateObjectHere})
				rep.WriteTo(ec.mech)
			}
		case giop.MsgCloseConnection:
			return
		default:
			// CancelRequest etc.: nothing to convey.
		}
	}
}

func (ec *egressConn) forwardRequest(msg *giop.Message) {
	req, err := giop.ParseRequest(msg)
	if err != nil {
		return
	}
	ec.mu.Lock()
	logical := req.Header.RequestID + ec.offset
	if req.Header.RequestID+1 > ec.localNext {
		ec.localNext = req.Header.RequestID + 1
	}
	if logical+1 > ec.nextLogical {
		ec.nextLogical = logical + 1
	}
	ec.mu.Unlock()

	wire := msg
	if logical != req.Header.RequestID {
		if wire, err = interceptor.RewriteRequestID(msg, logical); err != nil {
			return
		}
	}
	node := ec.entity.node
	traceID := node.nextTrace()
	node.spans.Begin(traceID, ec.id.Group)
	env := &replication.Envelope{
		Kind:    replication.KRequest,
		Group:   ec.id.Group,
		Conn:    ec.id,
		OpID:    logical,
		Oneway:  !req.Header.ResponseExpected,
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
	ec, ok := ce.conns[env.Conn]
	if !ok {
		ce.mu.Unlock()
		return // we never opened this connection locally (other replica's node)
	}
	if !ce.replyFilter.FirstDelivery(env.Conn, env.OpID) {
		ce.mu.Unlock()
		ce.node.counters.duplicateReplies.Add(1)
		return // duplicate response from another server replica
	}
	ce.mu.Unlock()
	ce.node.counters.repliesDelivered.Add(1)

	msg, err := giop.ReadMessage(bytes.NewReader(env.Payload))
	if err != nil {
		return
	}
	ec.mu.Lock()
	offset := ec.offset
	ec.mu.Unlock()
	if offset != 0 {
		local := env.OpID - offset
		if msg, err = interceptor.RewriteReplyID(msg, local); err != nil {
			return
		}
	}
	msg.WriteTo(ec.mech)
	if latency, ok := ce.node.spans.Finish(env.Trace); ok {
		ce.node.invocationHist.ObserveDuration(latency)
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
		ec.mu.Lock()
		out = append(out, recovery.ClientConnState{Conn: id, NextRequestID: ec.nextLogical})
		ec.mu.Unlock()
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
			// counter, accounting for the local ids already consumed.
			ec.mu.Lock()
			if st.NextRequestID >= ec.localNext {
				ec.offset = st.NextRequestID - ec.localNext
				ec.nextLogical = st.NextRequestID
			}
			ec.mu.Unlock()
		} else {
			ce.pendingOffsets[st.Conn] = st.NextRequestID
		}
	}
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
		ec.mech.Close()
	}
}
