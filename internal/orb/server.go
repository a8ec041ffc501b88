package orb

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"eternal/internal/cdr"
	"eternal/internal/giop"
	"eternal/internal/ior"
)

// Servant is the implementation of a CORBA object: the server-side
// counterpart of an IDL interface's skeleton. Invoke receives the
// operation name and CDR-encoded arguments and returns the CDR-encoded
// result, or an error (*UserException, *SystemException, or any other
// error, which is mapped to CORBA INTERNAL).
type Servant interface {
	Invoke(op string, args []byte, order cdr.ByteOrder) ([]byte, error)
}

// ServantFunc adapts a function to the Servant interface.
type ServantFunc func(op string, args []byte, order cdr.ByteOrder) ([]byte, error)

// Invoke implements Servant.
func (f ServantFunc) Invoke(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
	return f(op, args, order)
}

// ServerOptions configures a server ORB. It has no settings: replies are
// big-endian and unfragmented, and a short key the connection never
// negotiated is discarded.
type ServerOptions struct{}

// Server is the server-side ORB: it adapts connections to POAs, one
// Session of ORB-level state per connection.
type Server struct {
	mu        sync.Mutex
	poas      map[string]*POA
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	// closed is set under mu; Session.Handle reads it without.
	closed atomic.Bool

	// dispatchMu serializes every dispatch in the server, across POAs and
	// connections: the deterministic execution Eternal's replica
	// consistency assumes (paper §2.1 "Multithreading").
	dispatchMu sync.Mutex

	nRequests  atomic.Uint64
	nDiscarded atomic.Uint64
}

// ServerStats are cumulative server counters. DiscardedRequests counts
// short-key requests dropped for lack of a handshake — the §4.2.2 failure
// signature.
type ServerStats struct {
	Requests          uint64
	DiscardedRequests uint64
}

// NewServer creates a server ORB with a root POA named "root".
func NewServer(ServerOptions) *Server {
	s := &Server{
		poas:      make(map[string]*POA),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	s.CreatePOA("root")
	return s
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:          s.nRequests.Load(),
		DiscardedRequests: s.nDiscarded.Load(),
	}
}

// CreatePOA creates (or returns the existing) POA with the given name.
func (s *Server) CreatePOA(name string) *POA {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.poas[name]; ok {
		return p
	}
	p := &POA{server: s, name: name, servants: make(map[string]Servant)}
	s.poas[name] = p
	return p
}

// RootPOA returns the default POA.
func (s *Server) RootPOA() *POA {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.poas["root"]
}

// POA is a Portable Object Adapter: it maps object ids to servants. Every
// POA dispatches under its server's one lock.
type POA struct {
	server *Server
	name   string

	mu       sync.Mutex
	servants map[string]Servant
}

// Name returns the POA's name.
func (p *POA) Name() string { return p.name }

// Activate registers a servant under the given object id and returns the
// object key that addresses it.
func (p *POA) Activate(oid string, sv Servant) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.servants[oid] = sv
	return p.ObjectKey(oid)
}

// ObjectKey returns the wire object key for an object id in this POA.
func (p *POA) ObjectKey(oid string) []byte {
	return []byte(p.name + "/" + oid)
}

// IOR builds a reference to an activated object reachable at host:port.
func (p *POA) IOR(typeID, host string, port uint16, oid string) *ior.IOR {
	return ior.NewObjectReference(typeID, host, port, p.ObjectKey(oid))
}

func (p *POA) lookup(oid string) (Servant, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sv, ok := p.servants[oid]
	return sv, ok
}

// resolveKey finds the servant for a full object key.
func (s *Server) resolveKey(key []byte) (Servant, bool) {
	name, oid, ok := strings.Cut(string(key), "/")
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	poa, ok := s.poas[name]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return poa.lookup(oid)
}

// Serve accepts connections until the listener fails or the server closes.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return errors.New("orb: server closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return fmt.Errorf("orb: accept: %w", err)
		}
		go s.ServeConn(conn)
	}
}

// Close shuts down the server: all listeners and connections close.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return
	}
	s.closed.Store(true)
	ls := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		ls = append(ls, l)
	}
	cs := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range cs {
		c.Close()
	}
}

// Session is one connection's ORB/POA-level state of paper §4.2 — the
// negotiated code sets and the handshake alias table — invisible to servants, essential to correct recovery. ServeConn
// keeps one per network connection; Eternal's mechanisms keep one per
// logical client connection and hand it each ordered request in-line. A
// Session is not safe for concurrent use.
type Session struct {
	srv *Server
	// negotiated code sets (from the CodeSets service context).
	codeSets   codeSets
	negotiated bool
	// aliasTable maps handshake-negotiated aliases to full object keys.
	aliasTable map[uint32][]byte
}

// NewSession returns the state of a fresh connection: default code sets,
// no negotiated aliases.
func (s *Server) NewSession() *Session {
	return &Session{srv: s, codeSets: defaultCodeSets, aliasTable: make(map[uint32][]byte)}
}

// ServeConn serves one connection until it closes: each complete message
// goes through one Session, and whatever it answers is written back.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	ss := s.NewSession()
	r := giop.NewReader(conn)
	for {
		msg, err := r.Next()
		if err != nil || msg.Type == giop.MsgCloseConnection {
			return
		}
		if ans, _ := ss.Handle(msg); ans != nil {
			if giop.WriteMessage(conn, ans, 0) != nil {
				return
			}
		}
	}
}

// Seen is what Handle learnt of a message besides its answer: whether it
// was a well-formed Request, and whether that request carried a context
// the session absorbs (code sets or the vendor handshake, §4.2.2). A
// request the ORB then discards is seen all the same.
type Seen struct {
	Request, Handshake bool
}

// Handle dispatches one complete (reassembled) message received on the
// session's connection and returns the ORB's answer: a Reply, a
// LocateReply or a MessageError. It returns nil when the ORB sends
// nothing — a oneway, a short key the connection never negotiated
// (§4.2.2), a cancel or close, and anything once the server is closed,
// which sees nothing either. Seen says what its parse found.
func (ss *Session) Handle(msg *giop.Message) (*giop.Message, Seen) {
	s := ss.srv
	if s.closed.Load() {
		return nil, Seen{}
	}
	switch msg.Type {
	case giop.MsgRequest:
		req, err := giop.ParseRequest(msg)
		if err != nil {
			return &giop.Message{Version: msg.Version, Order: cdr.BigEndian, Type: giop.MsgMessageError}, Seen{}
		}
		return ss.handleRequest(msg, req)
	case giop.MsgLocateRequest:
		lr, err := giop.ParseLocateRequest(msg)
		if err != nil {
			return nil, Seen{}
		}
		status := giop.LocateUnknownObject
		if _, ok := s.resolveKey(ss.expandKey(lr.ObjectKey)); ok {
			status = giop.LocateObjectHere
		}
		return giop.EncodeLocateReply(msg.Version, cdr.BigEndian,
			&giop.LocateReplyHeader{RequestID: lr.RequestID, Status: status}), Seen{}
	}
	// Nothing cancellable in a synchronous dispatch model.
	return nil, Seen{}
}

// expandKey resolves negotiated short keys through the connection's alias
// table; non-short keys pass through. A short key with no table entry
// returns nil.
func (ss *Session) expandKey(key []byte) []byte {
	alias, isShort := decodeShortKey(key)
	if !isShort {
		return key
	}
	return ss.aliasTable[alias]
}

func (ss *Session) handleRequest(msg *giop.Message, req *giop.Request) (*giop.Message, Seen) {
	s := ss.srv
	s.nRequests.Add(1)

	// Absorb handshake contexts (the client-server negotiation of §4.2.2).
	seen := Seen{Request: true}
	var replyContexts []giop.ServiceContext
	if sc := giop.FindContext(req.Header.ServiceContexts, giop.SCCodeSets); sc != nil {
		seen.Handshake = true
		if cs, err := decodeCodeSetsContext(sc); err == nil {
			ss.codeSets = cs
			ss.negotiated = true
		}
	}
	if sc := giop.FindContext(req.Header.ServiceContexts, giop.SCVendorHandshake); sc != nil {
		seen.Handshake = true
		if verb, proposals, _, err := decodeHandshake(sc); err == nil && verb == verbNegotiate {
			accepted := make([]uint32, 0, len(proposals))
			for _, pr := range proposals {
				ss.aliasTable[pr.Alias] = pr.FullKey
				accepted = append(accepted, pr.Alias)
			}
			replyContexts = append(replyContexts, encodeHandshakeAccept(accepted))
		}
	}

	fullKey := ss.expandKey(req.Header.ObjectKey)
	if fullKey == nil {
		// A short key on a connection that never performed the handshake:
		// the server ORB cannot interpret it. Per the paper's description
		// of this failure mode, the request is discarded (no reply), so an
		// unrecovered server replica leaves clients waiting.
		s.nDiscarded.Add(1)
		return nil, seen
	}

	servant, ok := s.resolveKey(fullKey)
	if !ok {
		if req.Header.ResponseExpected {
			return s.reply(msg, req, replyContexts, nil, ObjectNotExist()), seen
		}
		return nil, seen
	}

	dispatch := func() (result []byte, err error) {
		// A panicking servant must not take the ORB down: surface it as
		// CORBA UNKNOWN, like any real ORB's server engine.
		defer func() {
			if r := recover(); r != nil {
				err = &SystemException{
					Name:      "IDL:omg.org/CORBA/UNKNOWN:1.0",
					Completed: CompletedMaybe,
				}
			}
		}()
		return servant.Invoke(req.Header.Operation, req.Args, req.Order)
	}
	s.dispatchMu.Lock()
	result, err := dispatch()
	s.dispatchMu.Unlock()

	if !req.Header.ResponseExpected {
		return nil, seen
	}
	return s.reply(msg, req, replyContexts, result, err), seen
}

func (s *Server) reply(msg *giop.Message, req *giop.Request, scs []giop.ServiceContext, result []byte, err error) *giop.Message {
	hdr := &giop.ReplyHeader{
		ServiceContexts: scs,
		RequestID:       req.Header.RequestID,
		Status:          giop.ReplyNoException,
	}
	body := result
	if err != nil {
		if ue, ok := AsUserException(err); ok {
			hdr.Status = giop.ReplyUserException
			body = encodeUserException(cdr.BigEndian, ue)
		} else if se, ok := AsSystemException(err); ok {
			hdr.Status = giop.ReplySystemException
			body = encodeSystemException(cdr.BigEndian, se)
		} else {
			hdr.Status = giop.ReplySystemException
			body = encodeSystemException(cdr.BigEndian, Internal())
		}
	}
	return giop.EncodeReply(msg.Version, cdr.BigEndian, hdr, body)
}
