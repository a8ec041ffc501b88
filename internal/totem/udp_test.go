package totem

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// freePorts reserves n distinct loopback UDP ports.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	conns := make([]*net.UDPConn, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		ports = append(ports, c.LocalAddr().(*net.UDPAddr).Port)
	}
	for _, c := range conns {
		c.Close()
	}
	return ports
}

func TestUDPTransportRing(t *testing.T) {
	ports := freePorts(t, 3)
	names := []string{"u1", "u2", "u3"}
	addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", ports[i]) }

	procs := make([]*Processor, 3)
	for i, name := range names {
		peers := make(map[string]string)
		for j, peer := range names {
			if j != i {
				peers[peer] = addr(j)
			}
		}
		tr, err := NewUDPTransport(name, addr(i), peers)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Start(fastConfig(tr))
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Stop()
		}
	})

	for _, p := range procs {
		awaitView(t, p, names, 10*time.Second)
	}
	// Ordered delivery across real UDP sockets.
	for i := 0; i < 10; i++ {
		if err := procs[i%3].Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ds1 := collect(t, procs[0], 10, 10*time.Second)
	ds2 := collect(t, procs[1], 10, 10*time.Second)
	for i := range ds1 {
		if ds1[i].Seq != ds2[i].Seq || ds1[i].Payload[0] != ds2[i].Payload[0] {
			t.Fatalf("divergent delivery at %d", i)
		}
	}
}

func TestUDPTransportLargeMessage(t *testing.T) {
	ports := freePorts(t, 2)
	addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", ports[i]) }
	t1, err := NewUDPTransport("a", addr(0), map[string]string{"b": addr(1)})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewUDPTransport("b", addr(1), map[string]string{"a": addr(0)})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := Start(fastConfig(t1))
	p2, _ := Start(fastConfig(t2))
	t.Cleanup(func() { p1.Stop(); p2.Stop() })
	awaitView(t, p1, []string{"a", "b"}, 10*time.Second)
	awaitView(t, p2, []string{"a", "b"}, 10*time.Second)

	big := make([]byte, 20_000) // fragments across many datagrams
	for i := range big {
		big[i] = byte(i * 3)
	}
	if err := p1.Multicast(big); err != nil {
		t.Fatal(err)
	}
	ds := collect(t, p2, 1, 15*time.Second)
	if len(ds[0].Payload) != len(big) {
		t.Fatalf("got %d bytes", len(ds[0].Payload))
	}
	for i := range big {
		if ds[0].Payload[i] != big[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}

func TestUDPTransportValidation(t *testing.T) {
	if _, err := NewUDPTransport("", "127.0.0.1:0", nil); err == nil {
		t.Fatal("empty name must be rejected")
	}
	if _, err := NewUDPTransport("x", "not-an-addr", nil); err == nil {
		t.Fatal("bad listen address must be rejected")
	}
	if _, err := NewUDPTransport("x", "127.0.0.1:0", map[string]string{"y": "::bad::"}); err == nil {
		t.Fatal("bad peer address must be rejected")
	}
}

func TestUDPTransportSelfLoopback(t *testing.T) {
	tr, err := NewUDPTransport("solo", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Broadcast([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-tr.Recv():
		if pkt.From != "solo" || string(pkt.Payload) != "ping" {
			t.Fatalf("pkt = %+v", pkt)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no loopback delivery")
	}
	// Send to self also loops back.
	if err := tr.Send("solo", []byte("me")); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-tr.Recv():
		if string(pkt.Payload) != "me" {
			t.Fatalf("pkt = %+v", pkt)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no self-send delivery")
	}
	// Unknown peer: silently dropped.
	if err := tr.Send("ghost", []byte("x")); err != nil {
		t.Fatal(err)
	}
}
