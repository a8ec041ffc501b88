package interceptor

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/giop"
	"eternal/internal/orb"
)

func TestPipeBasicExchange(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	if _, err := a.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("got %q, %v", buf[:n], err)
	}
	// Other direction.
	if _, err := b.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	n, err = a.Read(buf)
	if err != nil || string(buf[:n]) != "world" {
		t.Fatalf("got %q, %v", buf[:n], err)
	}
}

func TestPipeWritesNeverBlock(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// 10 MB with nobody reading must not block.
		chunk := make([]byte, 64*1024)
		for i := 0; i < 160; i++ {
			if _, err := a.Write(chunk); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("write blocked")
	}
	// All bytes are readable.
	total := 0
	buf := make([]byte, 1<<20)
	for total < 160*64*1024 {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
}

// TestPipeReusesDrainedBuffer: once a direction is drained, the next
// write lands in the same array, so a steady message exchange allocates
// nothing in the pipe.
func TestPipeReusesDrainedBuffer(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msg := make([]byte, 100)
	buf := make([]byte, len(msg))
	exchange := func() {
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	exchange() // the first write sizes the array
	if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
		t.Fatalf("a 100-byte write and read allocate %.1f times, want 0", allocs)
	}
}

func TestPipeCloseGivesEOFAfterDrain(t *testing.T) {
	a, b := Pipe()
	a.Write([]byte("tail"))
	a.Close()
	buf := make([]byte, 16)
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("got %q, %v", buf[:n], err)
	}
	if _, err := b.Read(buf); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	if _, err := b.Write([]byte("x")); err == nil {
		t.Fatal("write to closed pipe must fail")
	}
}

func TestPipeConcurrentReadersWriters(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const msgs = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			a.Write([]byte{byte(i)})
		}
	}()
	got := 0
	buf := make([]byte, 64)
	for got < msgs {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
	wg.Wait()
}

// groups is a diversion predicate over a set of hosts the test edits.
type groups struct {
	mu    sync.Mutex
	hosts map[string]bool
}

func (g *groups) diverts(host string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hosts[host]
}

func TestInterceptorRoutes(t *testing.T) {
	var accepted []string
	var egressed []*giop.Message
	var mech *Conn
	ic := New((&groups{hosts: map[string]bool{"group-bank": true}}).diverts, func(host string, c *Conn) func(*giop.Message) {
		accepted = append(accepted, host)
		mech = c
		return func(m *giop.Message) { egressed = append(egressed, m) }
	}, nil)
	before := Snapshot()
	raw, err := ic.Dial("group-bank", 4242)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Accepted on the dialing goroutine, before Dial returned.
	if len(accepted) != 1 || accepted[0] != "group-bank" {
		t.Fatalf("accepted %v before Dial returned, want [group-bank]", accepted)
	}
	if got := Snapshot().DivertedDials - before.DivertedDials; got != 1 {
		t.Fatalf("diverted dials moved by %d, want 1", got)
	}
	c, ok := raw.(orb.MessageConn)
	if !ok || raw != net.Conn(mech) {
		t.Fatalf("Dial returned %T, not the Conn it accepted", raw)
	}
	// Whole messages both ways, on the calling goroutine.
	req := giop.EncodeRequest(giop.Version12, cdr.BigEndian, &giop.RequestHeader{RequestID: 1, ObjectKey: []byte("k"), Operation: "op"}, nil)
	if err := c.Send(req); err != nil || len(egressed) != 1 || egressed[0] != req {
		t.Fatalf("Send = %v; the egress handler got %v, want the request itself", err, egressed)
	}
	var received []*giop.Message
	reply := giop.EncodeReply(giop.Version12, cdr.BigEndian, &giop.ReplyHeader{RequestID: 1}, nil)
	mech.Deliver(reply) // before the ORB has bound the connection: dropped
	c.Bind(func(m *giop.Message) { received = append(received, m) })
	mech.Deliver(reply)
	if len(received) != 1 || received[0] != reply {
		t.Fatalf("the ORB received %v, want the reply itself, once", received)
	}
	if _, err := raw.Write([]byte("bytes")); err == nil {
		t.Fatal("a diverted connection accepted bytes")
	}
	// Once the ORB closes, nothing crosses either way.
	raw.Close()
	if mech.Deliver(reply); len(received) != 1 {
		t.Fatal("delivered to an ORB that closed the connection")
	}
	if err := c.Send(req); err == nil || len(egressed) != 1 {
		t.Fatal("sent on a closed connection")
	}
}

// TestInterceptorRefused: an AcceptFunc that returns no egress handler
// refuses the connection, and Dial fails.
func TestInterceptorRefused(t *testing.T) {
	ic := New((&groups{hosts: map[string]bool{"g": true}}).diverts, func(string, *Conn) func(*giop.Message) { return nil }, nil)
	if _, err := ic.Dial("g", 1); err == nil {
		t.Fatal("a refused connection dialed")
	}
}

func TestInterceptorNoFallback(t *testing.T) {
	ic := New((&groups{}).diverts, func(string, *Conn) func(*giop.Message) {
		t.Error("accepted an undiverted host")
		return nil
	}, nil)
	if _, err := ic.Dial("unknown-host", 1); err == nil {
		t.Fatal("expected error without fallback")
	}
}

type fakeDialer struct{ dialed string }

func (f *fakeDialer) Dial(host string, port uint16) (net.Conn, error) {
	f.dialed = host
	a, _ := Pipe()
	return a, nil
}

func TestInterceptorFallback(t *testing.T) {
	fd := &fakeDialer{}
	ic := New((&groups{}).diverts, func(string, *Conn) func(*giop.Message) {
		t.Error("accepted an undiverted host")
		return nil
	}, fd)
	before := Snapshot()
	c, err := ic.Dial("plain-host", 80)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if fd.dialed != "plain-host" {
		t.Fatalf("fallback saw %q", fd.dialed)
	}
	if got := Snapshot().FallbackDials - before.FallbackDials; got != 1 {
		t.Fatalf("fallback dials moved by %d, want 1", got)
	}
}

// TestInterceptorUnregister: the predicate is asked on every dial, so a
// host that stops being a replicated target is no longer diverted.
func TestInterceptorUnregister(t *testing.T) {
	g := &groups{hosts: map[string]bool{"g": true}}
	ic := New(g.diverts, func(string, *Conn) func(*giop.Message) { return func(*giop.Message) {} }, nil)
	c, err := ic.Dial("g", 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	g.mu.Lock()
	delete(g.hosts, "g")
	g.mu.Unlock()
	if _, err := ic.Dial("g", 1); err == nil {
		t.Fatal("expected error once g is no longer diverted")
	}
}

func TestRewriteRequestID(t *testing.T) {
	h := &giop.RequestHeader{
		RequestID:        0, // the fresh ORB's first id
		ResponseExpected: true,
		ObjectKey:        []byte("root/acct"),
		Operation:        "deposit",
		ServiceContexts:  []giop.ServiceContext{{ID: giop.SCCodeSets, Data: []byte{0, 1}}},
	}
	args := []byte{1, 2, 3, 4}
	m := giop.EncodeRequest(giop.Version12, cdr.BigEndian, h, args)
	out, err := RewriteRequestID(m, 351) // the group's logical counter
	if err != nil {
		t.Fatal(err)
	}
	req, err := giop.ParseRequest(out)
	if err != nil {
		t.Fatal(err)
	}
	if req.Header.RequestID != 351 {
		t.Fatalf("id = %d", req.Header.RequestID)
	}
	// Everything else is untouched.
	if req.Header.Operation != "deposit" || !bytes.Equal(req.Args, args) {
		t.Fatalf("request mutated: %+v", req.Header)
	}
	if len(req.Header.ServiceContexts) != 1 {
		t.Fatal("service contexts lost")
	}
}

func TestRewriteReplyID(t *testing.T) {
	m := giop.EncodeReply(giop.Version11, cdr.LittleEndian,
		&giop.ReplyHeader{RequestID: 351, Status: giop.ReplyNoException}, []byte{9})
	out, err := RewriteReplyID(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := giop.ParseReply(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Header.RequestID != 0 || rep.Header.Status != giop.ReplyNoException {
		t.Fatalf("reply = %+v", rep.Header)
	}
	if !bytes.Equal(rep.Result, []byte{9}) {
		t.Fatal("result mutated")
	}
}

func TestRewriteWrongType(t *testing.T) {
	m := giop.EncodeReply(giop.Version12, cdr.BigEndian, &giop.ReplyHeader{}, nil)
	if _, err := RewriteRequestID(m, 1); err == nil {
		t.Fatal("expected type error")
	}
}

func TestGIOPStreamOverPipe(t *testing.T) {
	// Full GIOP streaming across the pipe, as the mechanisms do.
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		for i := uint32(0); i < 10; i++ {
			m := giop.EncodeRequest(giop.Version12, cdr.BigEndian,
				&giop.RequestHeader{RequestID: i, ObjectKey: []byte("k"), Operation: "op"}, nil)
			m.WriteTo(a)
		}
	}()
	r := giop.NewReader(b)
	for i := uint32(0); i < 10; i++ {
		m, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		req, err := giop.ParseRequest(m)
		if err != nil {
			t.Fatal(err)
		}
		if req.Header.RequestID != i {
			t.Fatalf("got id %d, want %d", req.Header.RequestID, i)
		}
	}
}
