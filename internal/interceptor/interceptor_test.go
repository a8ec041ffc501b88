package interceptor

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/giop"
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

func TestPipeReadDeadline(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	buf := make([]byte, 4)
	start := time.Now()
	_, err := b.Read(buf)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadline far too late")
	}
	// Clearing the deadline unblocks future reads.
	b.SetReadDeadline(time.Time{})
	a.Write([]byte("late"))
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "late" {
		t.Fatalf("got %q, %v", buf[:n], err)
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
	received := make(chan []byte, 1)
	var accepted []string
	ic := New((&groups{hosts: map[string]bool{"group-bank": true}}).diverts, func(host string, mechEnd net.Conn) {
		accepted = append(accepted, host)
		go func() {
			defer mechEnd.Close()
			buf := make([]byte, 16)
			n, _ := mechEnd.Read(buf)
			received <- append([]byte(nil), buf[:n]...)
		}()
	}, nil)
	before := Snapshot()
	c, err := ic.Dial("group-bank", 4242)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Accepted on the dialing goroutine, before Dial returned.
	if len(accepted) != 1 || accepted[0] != "group-bank" {
		t.Fatalf("accepted %v before Dial returned, want [group-bank]", accepted)
	}
	if got := Snapshot().DivertedDials - before.DivertedDials; got != 1 {
		t.Fatalf("diverted dials moved by %d, want 1", got)
	}
	c.Write([]byte("diverted"))
	select {
	case got := <-received:
		if string(got) != "diverted" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("mechanisms never received the bytes")
	}
}

func TestInterceptorNoFallback(t *testing.T) {
	ic := New((&groups{}).diverts, func(string, net.Conn) { t.Error("accepted an undiverted host") }, nil)
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
	ic := New((&groups{}).diverts, func(string, net.Conn) { t.Error("accepted an undiverted host") }, fd)
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
	ic := New(g.diverts, func(host string, mechEnd net.Conn) { mechEnd.Close() }, nil)
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
