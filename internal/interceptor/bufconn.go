package interceptor

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// ErrDeadline is returned by reads that exceed their deadline.
var ErrDeadline = errors.New("interceptor: deadline exceeded")

// Pipe returns a connected pair of in-memory, *buffered* net.Conns.
//
// Unlike net.Pipe, writes never block: each direction is an unbounded
// byte queue. This matters because Eternal's mechanisms write replies into
// client ORB connections from protocol goroutines that must never stall on
// a slow reader (the same reason the paper's Eternal enqueues messages at
// the Recovery Mechanisms rather than blocking the multicast engine).
func Pipe() (net.Conn, net.Conn) {
	a2b := newBuffer()
	b2a := newBuffer()
	a := &conn{read: b2a, write: a2b, name: "pipe-a"}
	b := &conn{read: a2b, write: b2a, name: "pipe-b"}
	return a, b
}

// buffer is one direction of the pipe.
type buffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	data   []byte
	closed bool
}

func newBuffer() *buffer {
	b := &buffer{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *buffer) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, io.ErrClosedPipe
	}
	b.data = append(b.data, p...)
	b.cond.Broadcast()
	return len(p), nil
}

func (b *buffer) read(p []byte, deadline time.Time) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.data) == 0 && !b.closed {
		if !deadline.IsZero() {
			if !time.Now().Before(deadline) {
				return 0, ErrDeadline
			}
			// Poll-wake so deadline expiry is noticed; granularity is
			// coarse but reads are for protocol streams, not timers.
			t := time.AfterFunc(time.Until(deadline), b.cond.Broadcast)
			b.cond.Wait()
			t.Stop()
			continue
		}
		b.cond.Wait()
	}
	if len(b.data) == 0 && b.closed {
		return 0, io.EOF
	}
	n := copy(p, b.data)
	if n == len(b.data) {
		// Drained: the next write reuses the array from its start.
		b.data = b.data[:0]
	} else {
		b.data = b.data[n:]
	}
	return n, nil
}

func (b *buffer) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.cond.Broadcast()
}

// conn is one end of the buffered pipe.
type conn struct {
	read  *buffer
	write *buffer
	name  string

	mu           sync.Mutex
	readDeadline time.Time
}

var _ net.Conn = (*conn)(nil)

func (c *conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	dl := c.readDeadline
	c.mu.Unlock()
	return c.read.read(p, dl)
}

func (c *conn) Write(p []byte) (int, error) { return c.write.write(p) }

// Close shuts both directions: the peer's reads drain then see EOF, and
// the peer's writes fail.
func (c *conn) Close() error {
	c.read.close()
	c.write.close()
	return nil
}

// pipeAddr is a trivial net.Addr.
type pipeAddr string

func (a pipeAddr) Network() string { return "eternal-pipe" }
func (a pipeAddr) String() string  { return string(a) }

func (c *conn) LocalAddr() net.Addr  { return pipeAddr(c.name) }
func (c *conn) RemoteAddr() net.Addr { return pipeAddr(c.name + "-peer") }

func (c *conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	c.read.cond.Broadcast()
	return nil
}

// SetWriteDeadline is a no-op: writes never block.
func (c *conn) SetWriteDeadline(time.Time) error { return nil }
