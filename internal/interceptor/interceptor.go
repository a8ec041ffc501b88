// Package interceptor implements Eternal's socket-level IIOP interception
// (paper §2, footnote 1): it sits below the ORB, above the transport, and
// diverts the ORB's IIOP traffic into the Replication Mechanisms without
// the ORB or the application noticing.
//
// The real Eternal interposes on the Solaris socket calls; in Go the same
// layer is the net.Conn boundary, so the interceptor is a Dialer the
// client ORB uses. A diverted connection is a Conn, which carries whole
// GIOP messages by function call: the ORB hands each request to the
// mechanisms on the invoking goroutine, and the mechanisms hand each reply
// to the ORB on theirs. No bytes are framed and no goroutine runs per
// connection. The server side needs no connection at all: the mechanisms
// hand each ordered request to the replica ORB's per-connection session
// (orb.Session) in-line. Endpoints that are not replicated targets fall
// through to plain TCP, preserving transparency for mixed deployments.
//
// The package also provides the GIOP header-rewriting primitives the
// mechanisms use to keep ORB-level state consistent across recovery
// (paper §4.2.1): translating the per-connection request_id between a
// replica's local ORB counter and the object group's logical counter.
package interceptor

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/giop"
	"eternal/internal/orb"
)

// AcceptFunc is handed each connection diverted to host, on the dialing
// goroutine before Dial returns, so dials are accepted in the order the
// ORB made them. It returns the connection's egress handler, which the ORB
// calls with each message it sends, on the sending goroutine; nil refuses
// the connection.
type AcceptFunc func(host string, c *Conn) (egress func(*giop.Message))

// Interceptor diverts connections to replicated targets into the
// Replication Mechanisms and passes everything else to a fallback dialer.
type Interceptor struct {
	diverts  func(host string) bool
	accept   AcceptFunc
	fallback orb.Dialer
}

var _ orb.Dialer = (*Interceptor)(nil)

// New creates an interceptor that diverts every host diverts reports true
// for into accept. fallback may be nil, in which case dialing any other
// host fails (fully-replicated deployments).
func New(diverts func(host string) bool, accept AcceptFunc, fallback orb.Dialer) *Interceptor {
	return &Interceptor{diverts: diverts, accept: accept, fallback: fallback}
}

// Dial implements orb.Dialer: a diverted host gets a Conn whose egress
// handler the AcceptFunc supplies; others fall through.
func (i *Interceptor) Dial(host string, port uint16) (net.Conn, error) {
	if !i.diverts(host) {
		if i.fallback == nil {
			return nil, fmt.Errorf("interceptor: %q is not diverted and there is no fallback dialer", host)
		}
		nFallback.Add(1)
		return i.fallback.Dial(host, port)
	}
	nDiverted.Add(1)
	c := &Conn{host: host}
	if c.egress = i.accept(host, c); c.egress == nil {
		return nil, fmt.Errorf("interceptor: the mechanisms refused a connection to %q", host)
	}
	return c, nil
}

// Conn is a diverted connection. The ORB sends each message with Send,
// which runs the mechanisms' egress handler on the sending goroutine; the
// mechanisms hand the ORB each message with Deliver, which runs the
// receive function the ORB bound. Conn satisfies net.Conn only so that
// orb.Dialer keeps its signature: Read and Write fail.
type Conn struct {
	host   string
	egress func(*giop.Message)

	mu      sync.Mutex
	receive func(*giop.Message)
	closed  bool
}

var _ orb.MessageConn = (*Conn)(nil)

// errWholeMessages is what Read and Write return.
var errWholeMessages = errors.New("interceptor: a diverted connection carries whole messages, not bytes")

// Bind implements orb.MessageConn.
func (c *Conn) Bind(receive func(*giop.Message)) {
	c.mu.Lock()
	c.receive = receive
	c.mu.Unlock()
}

// Send implements orb.MessageConn: m goes to the mechanisms' egress
// handler on the caller's goroutine.
func (c *Conn) Send(m *giop.Message) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return net.ErrClosed
	}
	c.egress(m)
	return nil
}

// Deliver hands m to the ORB's receive function on the caller's goroutine,
// which it never blocks. It drops m once the ORB has closed the connection
// or before the ORB has bound it.
func (c *Conn) Deliver(m *giop.Message) {
	c.mu.Lock()
	receive := c.receive
	if c.closed {
		receive = nil
	}
	c.mu.Unlock()
	if receive != nil {
		receive(m)
	}
}

// Hangup closes the connection from the mechanisms' side. The ORB is
// handed a CloseConnection, as a server ORB sends when it closes, and
// fails the calls it has outstanding.
func (c *Conn) Hangup() {
	c.Deliver(&giop.Message{Version: giop.Version12, Order: cdr.BigEndian, Type: giop.MsgCloseConnection})
	c.Close()
}

// Close is the ORB closing the connection: nothing is delivered to it
// afterwards, and its sends fail.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

func (c *Conn) Read([]byte) (int, error)  { return 0, errWholeMessages }
func (c *Conn) Write([]byte) (int, error) { return 0, errWholeMessages }

func (c *Conn) LocalAddr() net.Addr  { return pipeAddr("diverted") }
func (c *Conn) RemoteAddr() net.Addr { return pipeAddr(c.host) }

// Deadlines have nothing to bound: neither Send nor Deliver blocks on the
// connection.
func (c *Conn) SetDeadline(time.Time) error      { return nil }
func (c *Conn) SetReadDeadline(time.Time) error  { return nil }
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

// RewriteRequestID returns a copy of a GIOP Request message with its
// request_id replaced — the mechanism by which Eternal maps a recovered
// replica's local ORB request_id counter onto the group's logical counter
// so that "the GIOP headers of all outgoing IIOP request messages from
// both new and existing replicas are consistent" (paper §4.2.1).
func RewriteRequestID(m *giop.Message, id uint32) (*giop.Message, error) {
	req, err := giop.ParseRequest(m)
	if err != nil {
		return nil, err
	}
	req.Header.RequestID = id
	nReqRewr.Add(1)
	return giop.EncodeRequest(m.Version, m.Order, &req.Header, req.Args), nil
}

// RewriteReplyID returns a copy of a GIOP Reply message with its
// request_id replaced (the inbound direction of the same translation).
func RewriteReplyID(m *giop.Message, id uint32) (*giop.Message, error) {
	rep, err := giop.ParseReply(m)
	if err != nil {
		return nil, err
	}
	rep.Header.RequestID = id
	nReplyRewr.Add(1)
	return giop.EncodeReply(m.Version, m.Order, &rep.Header, rep.Result), nil
}
