// Package interceptor implements Eternal's socket-level IIOP interception
// (paper §2, footnote 1): it sits below the ORB, above the transport, and
// diverts the ORB's IIOP byte streams into the Replication Mechanisms
// without the ORB or the application noticing.
//
// The real Eternal interposes on the Solaris socket calls; in Go the same
// layer is the net.Conn boundary, so the interceptor is a Dialer the
// client ORB uses: a diverted connection is an in-memory pipe whose far
// end the mechanisms read. The server side needs no connection at all —
// the mechanisms hand each ordered request to the replica ORB's
// per-connection session (orb.Session) in-line. Endpoints that are not
// replicated targets fall through to plain TCP, preserving transparency
// for mixed deployments.
//
// The package also provides the GIOP header-rewriting primitives the
// mechanisms use to keep ORB-level state consistent across recovery
// (paper §4.2.1): translating the per-connection request_id between a
// replica's local ORB counter and the object group's logical counter.
package interceptor

import (
	"fmt"
	"net"

	"eternal/internal/giop"
	"eternal/internal/orb"
)

// AcceptFunc receives the mechanisms' end of a connection diverted to host.
// It runs on the dialing goroutine, before Dial returns, so dials are
// accepted in the order the ORB made them; it must not block on the
// connection.
type AcceptFunc func(host string, mechEnd net.Conn)

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

// Dial implements orb.Dialer: a diverted host gets an in-memory pipe whose
// far end is handed to the AcceptFunc; others fall through.
func (i *Interceptor) Dial(host string, port uint16) (net.Conn, error) {
	if !i.diverts(host) {
		if i.fallback == nil {
			return nil, fmt.Errorf("interceptor: %q is not diverted and there is no fallback dialer", host)
		}
		nFallback.Add(1)
		return i.fallback.Dial(host, port)
	}
	nDiverted.Add(1)
	orbEnd, mechEnd := Pipe()
	i.accept(host, mechEnd)
	return orbEnd, nil
}

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
