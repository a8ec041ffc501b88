package interceptor

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// Pipe returns a connected pair of in-memory, *buffered* net.Conns: an ORB
// talking IIOP to a server with no socket and no replication, as the
// benchmark's layer passes and the tests drive one.
//
// Unlike net.Pipe, writes never block: each direction is an unbounded
// byte queue, so a writer never stalls on a slow reader. Reads wait for
// data or for the close; the pipe has no deadlines.
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

func (b *buffer) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.data) == 0 && !b.closed {
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
}

var _ net.Conn = (*conn)(nil)

func (c *conn) Read(p []byte) (int, error)  { return c.read.read(p) }
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

// errNoDeadlines is what setting a deadline on the pipe returns.
var errNoDeadlines = errors.New("interceptor: the pipe has no deadlines")

func (c *conn) SetDeadline(time.Time) error      { return errNoDeadlines }
func (c *conn) SetReadDeadline(time.Time) error  { return errNoDeadlines }
func (c *conn) SetWriteDeadline(time.Time) error { return errNoDeadlines }
