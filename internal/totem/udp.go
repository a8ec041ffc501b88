package totem

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// udpMTU is the safe datagram payload for the UDP transport (well under
// typical path MTUs once the name header is added).
const udpMTU = 1400

// UDPTransport runs totem over UDP between a fixed set of named peers —
// the deployment transport for one-process-per-node domains (cmd/eternald).
// LAN multicast is often unavailable (containers, cloud), so Broadcast is
// a unicast fan-out to every configured peer plus local loopback.
//
// Datagram format: one length byte, the sender's name, then the payload.
type UDPTransport struct {
	name string
	conn *net.UDPConn
	out  chan Packet

	mu    sync.Mutex
	peers map[string]*net.UDPAddr

	closeOnce sync.Once
}

var _ Transport = (*UDPTransport)(nil)

// NewUDPTransport listens on listenAddr and fans out to peers (a map of
// peer name to "host:port"; the local name must not be in it).
func NewUDPTransport(name, listenAddr string, peers map[string]string) (*UDPTransport, error) {
	if len(name) == 0 || len(name) > 64 {
		return nil, errors.New("totem: node name must be 1..64 bytes")
	}
	laddr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("totem: resolving %q: %w", listenAddr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	t := &UDPTransport{
		name:  name,
		conn:  conn,
		out:   make(chan Packet, 4096),
		peers: make(map[string]*net.UDPAddr, len(peers)),
	}
	for peer, addr := range peers {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("totem: resolving peer %s=%q: %w", peer, addr, err)
		}
		t.peers[peer] = ua
	}
	go t.readLoop()
	return t, nil
}

// AddPeer registers (or re-addresses) a peer at runtime.
func (t *UDPTransport) AddPeer(name, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.peers[name] = ua
	t.mu.Unlock()
	return nil
}

func (t *UDPTransport) readLoop() {
	defer close(t.out)
	buf := make([]byte, 65536)
	for {
		n, _, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if n < 1 {
			continue
		}
		nameLen := int(buf[0])
		if n < 1+nameLen {
			continue
		}
		from := string(buf[1 : 1+nameLen])
		payload := make([]byte, n-1-nameLen)
		copy(payload, buf[1+nameLen:n])
		select {
		case t.out <- Packet{From: from, Payload: payload}:
		default:
			// Receive overrun: drop, like a kernel socket buffer.
		}
	}
}

// framePool recycles frame buffers across Send/Broadcast calls: WriteToUDP
// hands the datagram to the kernel synchronously, so the buffer is free the
// moment it returns, and the Transport ownership rule means the caller's
// payload may itself live in a buffer the caller reuses.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1+64+udpMTU)
		return &b
	},
}

func (t *UDPTransport) frame(payload []byte) *[]byte {
	bp := framePool.Get().(*[]byte)
	out := (*bp)[:0]
	out = append(out, byte(len(t.name)))
	out = append(out, t.name...)
	*bp = append(out, payload...)
	return bp
}

// Addr implements Transport.
func (t *UDPTransport) Addr() string { return t.name }

// MTU implements Transport.
func (t *UDPTransport) MTU() int { return udpMTU }

// Recv implements Transport.
func (t *UDPTransport) Recv() <-chan Packet { return t.out }

// Send implements Transport: best-effort unicast; unknown peers are
// silently dropped (LAN semantics, matching simnet).
func (t *UDPTransport) Send(to string, payload []byte) error {
	if to == t.name {
		t.loopback(payload)
		return nil
	}
	t.mu.Lock()
	ua := t.peers[to]
	t.mu.Unlock()
	if ua == nil {
		return nil
	}
	bp := t.frame(payload)
	_, err := t.conn.WriteToUDP(*bp, ua)
	framePool.Put(bp)
	return err
}

// Broadcast implements Transport: unicast fan-out plus local loopback.
func (t *UDPTransport) Broadcast(payload []byte) error {
	bp := t.frame(payload)
	t.mu.Lock()
	addrs := make([]*net.UDPAddr, 0, len(t.peers))
	for _, ua := range t.peers {
		addrs = append(addrs, ua)
	}
	t.mu.Unlock()
	var firstErr error
	for _, ua := range addrs {
		if _, err := t.conn.WriteToUDP(*bp, ua); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	framePool.Put(bp)
	t.loopback(payload)
	return firstErr
}

func (t *UDPTransport) loopback(payload []byte) {
	p := make([]byte, len(payload))
	copy(p, payload)
	select {
	case t.out <- Packet{From: t.name, Payload: p}:
	default:
	}
}

// Close implements Transport.
func (t *UDPTransport) Close() error {
	var err error
	t.closeOnce.Do(func() { err = t.conn.Close() })
	return err
}
