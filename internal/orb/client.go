package orb

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/giop"
	"eternal/internal/ior"
)

// Dialer opens transport connections for the client ORB. Eternal's
// interceptor supplies its own Dialer to divert IIOP traffic into the
// Replication Mechanisms without the ORB noticing — the socket-level
// interception of the paper, expressed as Go's connection factory.
type Dialer interface {
	Dial(host string, port uint16) (net.Conn, error)
}

// TCPDialer is the default Dialer: plain TCP, as an unintercepted ORB
// would use.
type TCPDialer struct {
	// Timeout bounds connection establishment; zero means no timeout.
	Timeout time.Duration
}

// Dial implements Dialer.
func (d TCPDialer) Dial(host string, port uint16) (net.Conn, error) {
	addr := fmt.Sprintf("%s:%d", host, port)
	if d.Timeout > 0 {
		return net.DialTimeout("tcp", addr, d.Timeout)
	}
	return net.Dial("tcp", addr)
}

// Errors reported by the client ORB.
var (
	ErrORBClosed   = errors.New("orb: ORB closed")
	ErrTimeout     = errors.New("orb: request timed out")
	ErrConnClosed  = errors.New("orb: connection closed")
	ErrLocationFwd = errors.New("orb: LOCATION_FORWARD not supported")
	ErrNoProfile   = errors.New("orb: reference has no usable IIOP profile")
)

// Options configures a client ORB.
type Options struct {
	// Dialer opens connections; nil means TCPDialer{}.
	Dialer Dialer
	// Version is the GIOP version to speak (default 1.2).
	Version giop.Version
	// Order is the byte order of emitted messages (default big-endian).
	Order cdr.ByteOrder
	// RequestTimeout bounds each two-way invocation; zero means wait
	// forever — which is exactly what a VisiBroker client does when a
	// reply's request_id never matches (paper Figure 4).
	RequestTimeout time.Duration
}

// ORB is the client-side Object Request Broker: it owns one connection per
// endpoint and the per-connection state (request_id counters, negotiated
// handshake results) the paper classifies as ORB-level state.
type ORB struct {
	opts Options

	mu     sync.Mutex
	conns  map[string]*clientConn
	closed bool
}

// NewORB creates a client ORB.
func NewORB(opts Options) *ORB {
	if opts.Dialer == nil {
		opts.Dialer = TCPDialer{}
	}
	if opts.Version == (giop.Version{}) {
		opts.Version = giop.Version12
	}
	return &ORB{opts: opts, conns: make(map[string]*clientConn)}
}

// Object resolves an IOR into an invocable reference using its first IIOP
// profile.
func (o *ORB) Object(r *ior.IOR) (*ObjectRef, error) {
	p, err := r.FirstIIOPProfile()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoProfile, err)
	}
	return &ObjectRef{
		orb:    o,
		typeID: r.TypeID,
		host:   p.Host,
		port:   p.Port,
		key:    append([]byte(nil), p.ObjectKey...),
	}, nil
}

// Close shuts down all connections; outstanding invocations fail.
func (o *ORB) Close() {
	o.mu.Lock()
	conns := make([]*clientConn, 0, len(o.conns))
	for _, c := range o.conns {
		conns = append(conns, c)
	}
	o.conns = make(map[string]*clientConn)
	o.closed = true
	o.mu.Unlock()
	for _, c := range conns {
		c.close(ErrORBClosed)
	}
}

// ConnStats reports per-endpoint connection counters; ok is false when no
// connection to the endpoint exists.
func (o *ORB) ConnStats(host string, port uint16) (ConnStats, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c, ok := o.conns[endpointKey(host, port)]
	if !ok {
		return ConnStats{}, false
	}
	return c.snapshot(), true
}

// ConnStats are per-connection counters. DiscardedReplies counts replies
// whose request_id matched no outstanding request — the observable symptom
// of unsynchronized ORB-level state in Figure 4.
type ConnStats struct {
	RequestsSent     uint64
	RepliesReceived  uint64
	DiscardedReplies uint64
	NextRequestID    uint32
}

func endpointKey(host string, port uint16) string {
	return fmt.Sprintf("%s:%d", host, port)
}

func (o *ORB) getConn(host string, port uint16) (*clientConn, error) {
	key := endpointKey(host, port)
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil, ErrORBClosed
	}
	if c, ok := o.conns[key]; ok {
		o.mu.Unlock()
		return c, nil
	}
	o.mu.Unlock()

	// Dial outside the lock; racing dials are reconciled below.
	raw, err := o.opts.Dialer.Dial(host, port)
	if err != nil {
		return nil, fmt.Errorf("orb: dialing %s: %w", key, err)
	}
	c := newClientConn(o, raw, key)

	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		c.close(ErrORBClosed)
		return nil, ErrORBClosed
	}
	if existing, ok := o.conns[key]; ok {
		o.mu.Unlock()
		c.close(ErrConnClosed)
		return existing, nil
	}
	o.conns[key] = c
	o.mu.Unlock()
	return c, nil
}

func (o *ORB) dropConn(key string, c *clientConn) {
	o.mu.Lock()
	if o.conns[key] == c {
		delete(o.conns, key)
	}
	o.mu.Unlock()
}

// ObjectRef is an invocable CORBA object reference.
type ObjectRef struct {
	orb    *ORB
	typeID string
	host   string
	port   uint16
	key    []byte
}

// TypeID returns the repository id of the reference.
func (r *ObjectRef) TypeID() string { return r.typeID }

// Endpoint returns the host and port the reference points at.
func (r *ObjectRef) Endpoint() (string, uint16) { return r.host, r.port }

// Key returns the object key (a copy).
func (r *ObjectRef) Key() []byte { return append([]byte(nil), r.key...) }

// Invoke performs a two-way operation: args is the CDR-encoded parameter
// body, the result is the CDR-encoded reply body. Exceptions surface as
// *SystemException or *UserException errors.
func (r *ObjectRef) Invoke(op string, args []byte) ([]byte, error) {
	return r.InvokeTimeout(op, args, r.orb.opts.RequestTimeout)
}

// InvokeTimeout is Invoke with a per-call timeout overriding the ORB's
// RequestTimeout (zero waits forever, like an ORB without timeouts).
func (r *ObjectRef) InvokeTimeout(op string, args []byte, timeout time.Duration) ([]byte, error) {
	c, err := r.orb.getConn(r.host, r.port)
	if err != nil {
		return nil, err
	}
	return c.call(r.key, op, args, true, timeout)
}

// InvokeOneway performs a oneway operation: no reply is expected or waited
// for (CORBA oneway semantics).
func (r *ObjectRef) InvokeOneway(op string, args []byte) error {
	c, err := r.orb.getConn(r.host, r.port)
	if err != nil {
		return err
	}
	_, err = c.call(r.key, op, args, false, 0)
	return err
}

// clientConn is one IIOP connection with its ORB-level state.
type clientConn struct {
	orb  *ORB
	key  string
	conn net.Conn

	writeMu sync.Mutex

	mu       sync.Mutex
	nextID   uint32 // the per-connection GIOP request_id counter (§4.2.1)
	pending  map[uint32]chan *giop.Reply
	closed   bool
	closeErr error

	// Negotiated ORB-level state (§4.2.2).
	handshakeSent bool
	nextAlias     uint32
	aliasByKey    map[string]uint32 // full key -> proposed alias
	accepted      map[uint32]bool   // aliases the server accepted

	nRequests  atomic.Uint64
	nReplies   atomic.Uint64
	nDiscarded atomic.Uint64
}

func newClientConn(o *ORB, raw net.Conn, key string) *clientConn {
	c := &clientConn{
		orb:        o,
		key:        key,
		conn:       raw,
		pending:    make(map[uint32]chan *giop.Reply),
		aliasByKey: make(map[string]uint32),
		accepted:   make(map[uint32]bool),
		nextAlias:  1,
	}
	go c.readLoop()
	return c
}

func (c *clientConn) snapshot() ConnStats {
	c.mu.Lock()
	next := c.nextID
	c.mu.Unlock()
	return ConnStats{
		RequestsSent:     c.nRequests.Load(),
		RepliesReceived:  c.nReplies.Load(),
		DiscardedReplies: c.nDiscarded.Load(),
		NextRequestID:    next,
	}
}

// call performs one invocation over the connection.
func (c *clientConn) call(fullKey []byte, op string, args []byte, twoWay bool, callTimeout time.Duration) ([]byte, error) {
	opts := c.orb.opts

	c.mu.Lock()
	if c.closed {
		err := c.closeErr
		c.mu.Unlock()
		return nil, err
	}
	id := c.nextID
	c.nextID++

	// Decide the object key and handshake contexts for this request.
	var scs []giop.ServiceContext
	wireKey := fullKey
	ks := string(fullKey)
	alias, proposed := c.aliasByKey[ks]
	switch {
	case proposed && c.accepted[alias]:
		// Negotiation complete: use the shortcut key.
		wireKey = encodeShortKey(alias)
	case !proposed:
		// First use of this key on this connection: propose an alias.
		alias = c.nextAlias
		c.nextAlias++
		c.aliasByKey[ks] = alias
		scs = append(scs, encodeHandshakeProposal([]keyAlias{{Alias: alias, FullKey: fullKey}}))
	}
	if !c.handshakeSent {
		// The connection's very first request also negotiates code sets.
		scs = append(scs, encodeCodeSetsContext(defaultCodeSets))
		c.handshakeSent = true
	}

	var waiter chan *giop.Reply
	if twoWay {
		waiter = make(chan *giop.Reply, 1)
		c.pending[id] = waiter
	}
	c.mu.Unlock()

	hdr := &giop.RequestHeader{
		ServiceContexts:  scs,
		RequestID:        id,
		ResponseExpected: twoWay,
		ObjectKey:        wireKey,
		Operation:        op,
	}
	msg := giop.EncodeRequest(opts.Version, opts.Order, hdr, args)

	c.writeMu.Lock()
	err := giop.WriteMessage(c.conn, msg, 0)
	c.writeMu.Unlock()
	c.nRequests.Add(1)
	if err != nil {
		c.close(fmt.Errorf("%w: %v", ErrConnClosed, err))
		return nil, CommFailure()
	}
	if !twoWay {
		return nil, nil
	}

	var timeout <-chan time.Time
	if callTimeout > 0 {
		t := time.NewTimer(callTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case rep, ok := <-waiter:
		if !ok {
			return nil, c.closeReason()
		}
		return c.processReply(rep)
	case <-timeout:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s request_id %d", ErrTimeout, op, id)
	}
}

func (c *clientConn) processReply(rep *giop.Reply) ([]byte, error) {
	// Absorb negotiated state from reply contexts.
	if sc := giop.FindContext(rep.Header.ServiceContexts, giop.SCVendorHandshake); sc != nil {
		if verb, _, acceptedAliases, err := decodeHandshake(sc); err == nil && verb == verbAccept {
			c.mu.Lock()
			for _, a := range acceptedAliases {
				c.accepted[a] = true
			}
			c.mu.Unlock()
		}
	}
	switch rep.Header.Status {
	case giop.ReplyNoException:
		return rep.Result, nil
	case giop.ReplyUserException:
		ue, err := decodeUserException(rep.Order, rep.Result)
		if err != nil {
			return nil, Internal()
		}
		return nil, ue
	case giop.ReplySystemException:
		se, err := decodeSystemException(rep.Order, rep.Result)
		if err != nil {
			return nil, Internal()
		}
		return nil, se
	case giop.ReplyLocationForward, giop.ReplyLocationForwardPerm:
		return nil, ErrLocationFwd
	default:
		return nil, Internal()
	}
}

func (c *clientConn) readLoop() {
	r := giop.NewReader(c.conn)
	for {
		msg, err := r.Next()
		if err != nil {
			c.close(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		switch msg.Type {
		case giop.MsgReply:
			rep, err := giop.ParseReply(msg)
			if err != nil {
				continue // malformed reply: drop
			}
			c.nReplies.Add(1)
			c.mu.Lock()
			waiter, ok := c.pending[rep.Header.RequestID]
			if ok {
				delete(c.pending, rep.Header.RequestID)
			}
			c.mu.Unlock()
			if ok {
				waiter <- rep
			} else {
				// The Figure 4 behaviour: a reply whose request_id matches
				// no outstanding request is silently discarded; whoever was
				// waiting for the "right" id waits forever.
				c.nDiscarded.Add(1)
			}
		case giop.MsgCloseConnection:
			c.close(ErrConnClosed)
			return
		default:
			// Clients ignore other message types.
		}
	}
}

func (c *clientConn) closeReason() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeErr != nil {
		return c.closeErr
	}
	return ErrConnClosed
}

func (c *clientConn) close(reason error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.closeErr = reason
	waiters := c.pending
	c.pending = make(map[uint32]chan *giop.Reply)
	c.mu.Unlock()

	c.conn.Close()
	c.orb.dropConn(c.key, c)
	for _, w := range waiters {
		close(w)
	}
}
