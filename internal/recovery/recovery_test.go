package recovery

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"eternal/internal/replication"
)

func sampleBundle() *Bundle {
	return &Bundle{
		AppState: []byte{1, 2, 3, 4},
		ORB: ORBState{
			ServerConns: []ServerConnState{
				{
					Conn:          replication.ConnID{Client: "teller", Group: "bank", Seq: 0},
					Handshake:     []byte("GIOP-handshake-bytes"),
					LastRequestID: 350,
				},
			},
			ClientConns: []ClientConnState{
				{
					Conn:          replication.ConnID{Client: "bank", Group: "ledger", Seq: 0},
					NextRequestID: 77,
				},
			},
		},
		Infra: InfraState{
			RequestFilter: []byte{9, 9},
			ReplyFilter:   []byte{8},
		},
	}
}

func TestBundleRoundTrip(t *testing.T) {
	in := sampleBundle()
	out, err := DecodeBundle(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.AppState, in.AppState) {
		t.Fatalf("app state = % x", out.AppState)
	}
	if len(out.ORB.ServerConns) != 1 || out.ORB.ServerConns[0].LastRequestID != 350 {
		t.Fatalf("server conns = %+v", out.ORB.ServerConns)
	}
	if string(out.ORB.ServerConns[0].Handshake) != "GIOP-handshake-bytes" {
		t.Fatal("handshake lost")
	}
	if out.ORB.ServerConns[0].Conn != in.ORB.ServerConns[0].Conn {
		t.Fatal("server conn id lost")
	}
	if len(out.ORB.ClientConns) != 1 || out.ORB.ClientConns[0].NextRequestID != 77 {
		t.Fatalf("client conns = %+v", out.ORB.ClientConns)
	}
	if !bytes.Equal(out.Infra.RequestFilter, in.Infra.RequestFilter) ||
		!bytes.Equal(out.Infra.ReplyFilter, in.Infra.ReplyFilter) {
		t.Fatal("infra filters lost")
	}
}

// bundleSeeds are encodings of the sample bundle, an empty one, and one with
// every integer at its widest.
func bundleSeeds() [][]byte {
	wide := sampleBundle()
	wide.CaptureNanos = -1
	wide.ORB.ServerConns[0].LastRequestID = math.MaxUint32
	wide.ORB.ClientConns = append(wide.ORB.ClientConns, ClientConnState{
		Conn: replication.ConnID{Client: "c", Seq: math.MaxUint64}, NextRequestID: math.MaxUint32})
	wide.AppState = make([]byte, 300)
	return [][]byte{sampleBundle().Encode(), (&Bundle{}).Encode(), wide.Encode()}
}

// hostileBundles announce more connections than their bytes hold.
func hostileBundles() [][]byte {
	return [][]byte{
		binary.AppendUvarint([]byte{0}, 1<<30),                        // 2³⁰ server connections
		append(binary.AppendUvarint([]byte{0, 0}, 1<<30), 0, 0, 0, 0), // 2³⁰ client connections
	}
}

// TestBundleRoundTripIsByteExact: decoding and encoding again gives back the
// bytes the encoder wrote.
func TestBundleRoundTripIsByteExact(t *testing.T) {
	for i, buf := range bundleSeeds() {
		b, err := DecodeBundle(buf)
		if err != nil {
			t.Fatalf("bundle %d: %v", i, err)
		}
		if again := b.Encode(); !bytes.Equal(again, buf) {
			t.Fatalf("bundle %d re-encodes to\n%x, not\n%x", i, again, buf)
		}
	}
}

// TestBundleDecodeRejectsTrailingBytes: a bundle with bytes after it is not
// that bundle.
func TestBundleDecodeRejectsTrailingBytes(t *testing.T) {
	for i, buf := range bundleSeeds() {
		if _, err := DecodeBundle(append(buf, 0)); !errors.Is(err, ErrBadBundle) {
			t.Errorf("bundle %d with a trailing byte: err = %v, want ErrBadBundle", i, err)
		}
	}
}

// TestBundleDecodeBoundsAllocationByItsInput: a connection count the bytes
// behind it cannot back is refused before anything is sized by it.
func TestBundleDecodeBoundsAllocationByItsInput(t *testing.T) {
	for i, buf := range hostileBundles() {
		var err error
		if grew := allocated(func() { _, err = DecodeBundle(buf) }); grew > allocBound(len(buf)) {
			t.Errorf("hostile bundle %d: decoding %d bytes allocated %d", i, len(buf), grew)
		}
		if !errors.Is(err, ErrBadBundle) {
			t.Errorf("hostile bundle %d: err = %v, want ErrBadBundle", i, err)
		}
	}
}

func TestEmptyBundle(t *testing.T) {
	out, err := DecodeBundle((&Bundle{}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.AppState) != 0 || len(out.ORB.ServerConns) != 0 || len(out.ORB.ClientConns) != 0 {
		t.Fatalf("got %+v", out)
	}
}

func TestQuickBundleDecodeRobust(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = DecodeBundle(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func env(op uint32) *replication.Envelope {
	return &replication.Envelope{
		Kind: replication.KRequest,
		Conn: replication.ConnID{Client: "c", Group: "g"},
		OpID: op,
	}
}

func TestLogAppendAndCheckpointGC(t *testing.T) {
	l := NewLog()
	if _, ok := l.Checkpoint(); ok {
		t.Fatal("no checkpoint expected initially")
	}
	for i := uint32(1); i <= 5; i++ {
		l.Append(env(i))
	}
	if l.Len() != 5 {
		t.Fatalf("len = %d", l.Len())
	}
	// The checkpoint overwrites: messages are garbage-collected.
	l.TruncateTo([]byte("state-at-5"), l.Len())
	if l.Len() != 0 {
		t.Fatalf("len after checkpoint = %d", l.Len())
	}
	cp, ok := l.Checkpoint()
	if !ok || string(cp) != "state-at-5" {
		t.Fatalf("checkpoint = %q, %v", cp, ok)
	}
	// New messages accumulate after the checkpoint.
	l.Append(env(6))
	l.Append(env(7))
	msgs := l.Messages()
	if len(msgs) != 2 || msgs[0].OpID != 6 || msgs[1].OpID != 7 {
		t.Fatalf("messages = %+v", msgs)
	}
	// A second checkpoint overwrites the first.
	l.TruncateTo([]byte("state-at-7"), l.Len())
	cp, _ = l.Checkpoint()
	if string(cp) != "state-at-7" {
		t.Fatalf("checkpoint = %q", cp)
	}
}

func TestLogCheckpointCopies(t *testing.T) {
	l := NewLog()
	buf := []byte("mutable")
	l.TruncateTo(buf, 0)
	buf[0] = 'X'
	cp, _ := l.Checkpoint()
	if string(cp) != "mutable" {
		t.Fatal("checkpoint must copy its input")
	}
}

func TestLogTruncateToKeepsTail(t *testing.T) {
	l := NewLog()
	for i := uint32(1); i <= 5; i++ {
		l.Append(env(i))
	}
	// A checkpoint captured after message 3 subsumes only the first 3.
	l.TruncateTo([]byte("state-at-3"), 3)
	msgs := l.Messages()
	if len(msgs) != 2 || msgs[0].OpID != 4 || msgs[1].OpID != 5 {
		t.Fatalf("tail = %+v", msgs)
	}
	cp, ok := l.Checkpoint()
	if !ok || string(cp) != "state-at-3" {
		t.Fatalf("checkpoint = %q", cp)
	}
}

func TestLogTruncateToBounds(t *testing.T) {
	l := NewLog()
	l.Append(env(1))
	// Beyond the log: clears everything.
	if dropped := l.TruncateTo([]byte("a"), 99); dropped != 1 || l.Len() != 0 {
		t.Fatalf("discarded %d, len = %d", dropped, l.Len())
	}
	l.Append(env(2))
	// Negative: keeps everything.
	if dropped := l.TruncateTo([]byte("b"), -1); dropped != 0 || l.Len() != 1 {
		t.Fatalf("discarded %d, len = %d", dropped, l.Len())
	}
}
