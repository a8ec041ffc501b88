package core

import (
	"sync"
	"sync/atomic"

	"eternal/internal/ftcorba"
	"eternal/internal/replication"
	"eternal/internal/totem"
)

// replyMarks is the sender-side half of duplicate-reply suppression: the
// highest reply operation id this node has seen ordered on each logical
// connection, whichever replica multicast it. Operation ids increase
// monotonically per connection, so one high-water mark per connection —
// the structure replication.DupFilter already is — says whether a copy of
// a given reply is already in the total order, and the state stays bounded
// by the number of connections however many replies are tombstoned or
// rings reset.
//
// The mark is advanced by ordered, on totem's ordering goroutine at the
// reply's agreed position, and read from replica dispatchers (before they
// multicast a reply) and from the ordering goroutine again (when a token
// visit is about to sequence a pending reply). Deciding at the ordered
// point is what makes withdrawal effective: the token that would sequence
// this node's copy sits in the same inbox right behind the frame that
// carried the peer's, so a mark advanced later, by the delivery loop,
// loses that race nearly every time.
type replyMarks struct {
	addr string
	mu   sync.Mutex
	seen *replication.DupFilter
	// reqs is the same for requests, on the ordering goroutine only: the
	// first ordered copy of a replicated client's invocation is the one
	// executed and answered (§2.1).
	reqs *replication.DupFilter
	// answering is the set of groups this node answers for (see answers),
	// kept by the delivery loop; it may lag the table by a delivery.
	answering sync.Map
	// hook is a test-only observer of ordered replies (see setReplyHook).
	hook atomic.Value
	// rejected counts ordered messages that are not envelopes — a peer on
	// another envelope layout, or garbage. Every member that decodes as
	// this one does drops the same ones at the same positions, so they move
	// nothing; they are counted because a silent drop leaves no trace.
	rejected atomic.Uint64
}

func newReplyMarks(addr string) *replyMarks {
	return &replyMarks{addr: addr, seen: replication.NewDupFilter(), reqs: replication.NewDupFilter()}
}

// answers reports whether node's replica answers a request to g at once:
// an operational active member, or the passive primary. handleRequest asks
// about the requester, ordered about this node through the published set.
func answers(g *replication.Group, node string) bool {
	if g.Spec.Props.Style != ftcorba.Active {
		return g.IsPrimary(node)
	}
	return g.IsOperational(node)
}

// publishAnswering republishes whether a replica here answers for a group.
func (n *Node) publishAnswering(name string) {
	if g, ok := n.table.Get(name); ok && n.hosts[name] != nil && answers(g, n.addr) {
		n.replyMarks.answering.Store(name, true)
	} else {
		n.replyMarks.answering.Delete(name)
	}
}

// ordered is the node's totem.Config.Ordered hook. It decodes the
// envelope once, on the ordering goroutine — the delivery loop picks the
// result up from d.App instead of decoding again — advances the mark for
// replies, and marks this node's own requests that its own replica will
// answer, so the token that sequenced one can wait for the reply.
func (m *replyMarks) ordered(d *totem.Delivery) {
	env, err := replication.Decode(d.Payload)
	if err != nil {
		m.rejected.Add(1)
		return
	}
	d.App = env
	switch env.Kind {
	case replication.KRequest:
		if _, ok := m.answering.Load(env.Group); ok && !env.Oneway {
			d.ReplyOwed = m.reqs.FirstDelivery(env.Conn, env.OpID) && d.Sender == m.addr
		}
	case replication.KReply:
		m.mu.Lock()
		m.seen.FirstDelivery(env.Conn, env.OpID)
		m.mu.Unlock()
		if hook, ok := m.hook.Load().(func(string, *replication.Envelope)); ok && hook != nil {
			hook(d.Sender, env)
		}
	}
}

// setReplyHook installs a test-only observer called on the ordering
// goroutine for every reply ordered on this node, right after its mark
// advances, with the node whose copy it was. Pass nil to remove.
func (n *Node) setReplyHook(hook func(sender string, env *replication.Envelope)) {
	n.replyMarks.hook.Store(hook)
}

// covers reports whether a reply to (conn, op) — or to a later operation
// on the connection — has been ordered.
func (m *replyMarks) covers(conn replication.ConnID, op uint32) bool {
	m.mu.Lock()
	hi, ok := m.seen.Peek(conn)
	m.mu.Unlock()
	return ok && !replication.After(op, hi)
}
