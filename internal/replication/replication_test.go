package replication

import (
	"bytes"
	"errors"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"eternal/internal/ftcorba"
)

// sameEnvelope reports whether a and b agree in every field; an empty
// payload and a nil one are the same payload.
func sameEnvelope(a, b *Envelope) bool {
	x, y := *a, *b
	x.Payload, y.Payload = nil, nil
	return reflect.DeepEqual(x, y) && bytes.Equal(a.Payload, b.Payload)
}

func TestEnvelopeRoundTrip(t *testing.T) {
	long := strings.Repeat("n", 300) // a two-byte length, past the header's stack buffer
	for _, in := range []*Envelope{
		{Kind: KRequest, Group: "bank", Node: "n1", Conn: ConnID{Client: "teller", Group: "bank", Seq: 2},
			OpID: 351, Oneway: true, XferID: 9, Trace: 0x1234_5678_9abc_def0, Payload: []byte{0xDE, 0xAD}},
		{Kind: KReply, Conn: ConnID{Client: "teller", Group: "bank", Seq: 2}, OpID: 351, Trace: 1, Payload: []byte("reply")},
		{Kind: KStateChunk, Group: "bank", Node: "n3", Conn: ConnID{Client: "c", Group: "other", Seq: math.MaxUint64},
			OpID: math.MaxUint32, XferID: math.MaxUint64, Trace: math.MaxUint64, Payload: make([]byte, 70000)},
		{Kind: KAudit, Group: long, Node: long, Conn: ConnID{Client: long, Group: long + "x"}},
		{Kind: KSyncRequest},
	} {
		out, err := Decode(in.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if !sameEnvelope(out, in) {
			t.Fatalf("got %+v, want %+v", out, in)
		}
	}
}

// TestEnvelopeSizesArePinned prices the benchmark's ping in envelope bytes:
// a 52-byte GIOP request from client entity driver0 to group bench on its
// first connection, operation 1000, traced, and its 36-byte reply. In CDR
// each envelope took 84 bytes beside its payload: 136 and 120 in all.
func TestEnvelopeSizesArePinned(t *testing.T) {
	conn := ConnID{Client: "driver0", Group: "bench"}
	trace := uint64(0x9e37_79b9)<<32 | 1000
	for _, tc := range []struct {
		env  Envelope
		want int
	}{
		// kind, flags, "bench", "", "driver0", seq, op, xfer, trace, payload length
		{Envelope{Kind: KRequest, Group: "bench", Conn: conn, OpID: 1000, Trace: trace, Payload: make([]byte, 52)}, 1 + 1 + 6 + 1 + 8 + 1 + 2 + 1 + 8 + 1 + 52},
		// kind, flags, "", "", "driver0", "bench", seq, op, xfer, trace, payload length
		{Envelope{Kind: KReply, Conn: conn, OpID: 1000, Trace: trace, Payload: make([]byte, 36)}, 1 + 1 + 1 + 1 + 8 + 6 + 1 + 2 + 1 + 8 + 1 + 36},
	} {
		if got := len(tc.env.Encode()); got != tc.want {
			t.Errorf("%v envelope: %d bytes, want %d", tc.env.Kind, got, tc.want)
		}
	}
}

func TestEnvelopeBadKind(t *testing.T) {
	raw := (&Envelope{Kind: KReply}).Encode()
	raw[0] = 200
	if _, err := Decode(raw); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("err = %v", err)
	}
}

// TestEnvelopeDecodeIsStrict: Decode takes exactly what Encode writes, so a
// second spelling of the same envelope is no envelope at all.
func TestEnvelopeDecodeIsStrict(t *testing.T) {
	good := (&Envelope{Kind: KRequest, Group: "g", Conn: ConnID{Client: "c", Group: "g", Seq: 1}, OpID: 1, Payload: []byte("x")}).Encode()
	// good is: kind, flags, "g" at 2, "" at 4, "c" at 5, seq at 7, op at 8,
	// xfer at 9, 8 trace bytes at 10, "x" at 18.
	with := func(at int, cut int, insert ...byte) []byte {
		return append(append(append([]byte{}, good[:at]...), insert...), good[at+cut:]...)
	}
	if _, err := Decode(good); err != nil {
		t.Fatal(err)
	}
	spelt := with(7, 0, 1, 'g')
	spelt[1] &^= flagSameGroup
	for name, raw := range map[string][]byte{
		"unknown flag":                 with(1, 1, good[1]|0x80),
		"connection's group spelt out": spelt,
		"over-long varint":             with(7, 1, 0x81, 0x00),
		"operation id past 32 bits":    with(8, 1, 0x80, 0x80, 0x80, 0x80, 0x10),
		"payload length unbacked":      with(18, 1, 2),
		"trailing byte":                append(append([]byte{}, good...), 0),
	} {
		if _, err := Decode(raw); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("%s: err = %v, want ErrBadEnvelope", name, err)
		}
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := Decode(good[:cut]); !errors.Is(err, ErrBadEnvelope) {
			t.Fatalf("truncation at %d bytes: err = %v", cut, err)
		}
	}
}

// retiredCDREnvelopes are well-formed envelopes of kinds 1–13 as the CDR
// encoder wrote them (big-endian, aligned, strings with their NUL), one per
// kind still in use: what a node of that layout on the same ring sends.
var retiredCDREnvelopes = []struct {
	name string
	buf  []byte
}{
	{"Request", []byte{
		1, 0, 0, 0, // kind, padding
		0, 0, 0, 2, 'g', 0, 0, 0, // group, padding
		0, 0, 0, 1, 0, 0, 0, 0, // node, padding
		0, 0, 0, 2, 'c', 0, 0, 0, // client, padding
		0, 0, 0, 2, 'g', 0, 0, 0, 0, 0, 0, 0, // connection's group, padding
		0, 0, 0, 0, 0, 0, 0, 1, // connection seq
		0, 0, 0, 1, // operation id
		0, 0, 0, 0, // oneway, padding
		0, 0, 0, 0, 0, 0, 0, 0, // transfer id
		0, 0, 0, 0, 0, 0, 0, 0, // trace
		0, 0, 0, 1, 'x', // payload
	}},
	{"Reply", []byte{
		2, 0, 0, 0, // kind, padding
		0, 0, 0, 1, 0, 0, 0, 0, // group, padding
		0, 0, 0, 1, 0, 0, 0, 0, // node, padding
		0, 0, 0, 2, 'c', 0, 0, 0, // client, padding
		0, 0, 0, 2, 'g', 0, 0, 0, 0, 0, 0, 0, // connection's group, padding
		0, 0, 0, 0, 0, 0, 0, 1, // connection seq
		0, 0, 0, 1, // operation id
		0, 0, 0, 0, // oneway, padding
		0, 0, 0, 0, 0, 0, 0, 0, // transfer id
		0, 0, 0, 0, 0, 0, 0, 0, // trace
		0, 0, 0, 1, 'x', // payload
	}},
	{"CreateGroup", []byte{
		3, 0, 0, 0, // kind, padding
		0, 0, 0, 2, 'g', 0, 0, 0, // group, padding
		0, 0, 0, 1, 0, 0, 0, 0, // node, padding
		0, 0, 0, 1, 0, 0, 0, 0, // client, padding
		0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, // connection's group, padding
		0, 0, 0, 0, 0, 0, 0, 0, // connection seq
		0, 0, 0, 0, // operation id
		0, 0, 0, 0, // oneway, padding
		0, 0, 0, 0, 0, 0, 0, 0, // transfer id
		0, 0, 0, 0, 0, 0, 0, 0, // trace
		0, 0, 0, 1, 'x', // payload
	}},
	{"RemoveMember", []byte{
		4, 0, 0, 0, // kind, padding
		0, 0, 0, 2, 'g', 0, 0, 0, // group, padding
		0, 0, 0, 3, 'n', '2', 0, 0, // node, padding
		0, 0, 0, 1, 0, 0, 0, 0, // client, padding
		0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, // connection's group, padding
		0, 0, 0, 0, 0, 0, 0, 0, // connection seq
		0, 0, 0, 0, // operation id
		0, 0, 0, 0, // oneway, padding
		0, 0, 0, 0, 0, 0, 0, 0, // transfer id
		0, 0, 0, 0, 0, 0, 0, 0, // trace
		0, 0, 0, 0, // payload
	}},
	{"AddMember", []byte{
		5, 0, 0, 0, // kind, padding
		0, 0, 0, 2, 'g', 0, 0, 0, // group, padding
		0, 0, 0, 3, 'n', '2', 0, 0, // node, padding
		0, 0, 0, 1, 0, 0, 0, 0, // client, padding
		0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, // connection's group, padding
		0, 0, 0, 0, 0, 0, 0, 0, // connection seq
		0, 0, 0, 0, // operation id
		0, 0, 0, 0, // oneway, padding
		0, 0, 0, 0, 0, 0, 0, 1, // transfer id
		0, 0, 0, 0, 0, 0, 0, 0, // trace
		0, 0, 0, 0, // payload
	}},
	{"Checkpoint", []byte{
		7, 0, 0, 0, // kind, padding
		0, 0, 0, 2, 'g', 0, 0, 0, // group, padding
		0, 0, 0, 1, 0, 0, 0, 0, // node, padding
		0, 0, 0, 1, 0, 0, 0, 0, // client, padding
		0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, // connection's group, padding
		0, 0, 0, 0, 0, 0, 0, 0, // connection seq
		0, 0, 0, 0, // operation id
		0, 0, 0, 0, // oneway, padding
		0, 0, 0, 0, 0, 0, 0, 1, // transfer id
		0, 0, 0, 0, 0, 0, 0, 0, // trace
		0, 0, 0, 0, // payload
	}},
	{"SyncRequest", []byte{
		8, 0, 0, 0, // kind, padding
		0, 0, 0, 1, 0, 0, 0, 0, // group, padding
		0, 0, 0, 3, 'n', '2', 0, 0, // node, padding
		0, 0, 0, 3, 'n', '1', 0, 0, // client, padding
		0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, // connection's group, padding
		0, 0, 0, 0, 0, 0, 0, 1, // connection seq
		0, 0, 0, 0, // operation id
		0, 0, 0, 0, // oneway, padding
		0, 0, 0, 0, 0, 0, 0, 0, // transfer id
		0, 0, 0, 0, 0, 0, 0, 0, // trace
		0, 0, 0, 0, // payload
	}},
	{"SyncState", []byte{
		9, 0, 0, 0, // kind, padding
		0, 0, 0, 1, 0, 0, 0, 0, // group, padding
		0, 0, 0, 3, 'n', '2', 0, 0, // node, padding
		0, 0, 0, 3, 'n', '1', 0, 0, // client, padding
		0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, // connection's group, padding
		0, 0, 0, 0, 0, 0, 0, 1, // connection seq
		0, 0, 0, 0, // operation id
		0, 0, 0, 0, // oneway, padding
		0, 0, 0, 0, 0, 0, 0, 1, // transfer id
		0, 0, 0, 0, 0, 0, 0, 0, // trace
		0, 0, 0, 1, 'x', // payload
	}},
	{"StateChunk", []byte{
		10, 0, 0, 0, // kind, padding
		0, 0, 0, 2, 'g', 0, 0, 0, // group, padding
		0, 0, 0, 3, 'n', '1', 0, 0, // node, padding
		0, 0, 0, 1, 0, 0, 0, 0, // client, padding
		0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, // connection's group, padding
		0, 0, 0, 0, 0, 0, 0, 0, // connection seq
		0, 0, 0, 0, // operation id
		0, 0, 0, 0, // oneway, padding
		0, 0, 0, 0, 0, 0, 0, 1, // transfer id
		0, 0, 0, 0, 0, 0, 0, 0, // trace
		0, 0, 0, 1, 'x', // payload
	}},
	{"StateManifest", []byte{
		11, 0, 0, 0, // kind, padding
		0, 0, 0, 2, 'g', 0, 0, 0, // group, padding
		0, 0, 0, 3, 'n', '1', 0, 0, // node, padding
		0, 0, 0, 1, 0, 0, 0, 0, // client, padding
		0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, // connection's group, padding
		0, 0, 0, 0, 0, 0, 0, 0, // connection seq
		0, 0, 0, 0, // operation id
		0, 0, 0, 0, // oneway, padding
		0, 0, 0, 0, 0, 0, 0, 1, // transfer id
		0, 0, 0, 0, 0, 0, 0, 0, // trace
		0, 0, 0, 1, 'x', // payload
	}},
	{"StateRetransmit", []byte{
		12, 0, 0, 0, // kind, padding
		0, 0, 0, 2, 'g', 0, 0, 0, // group, padding
		0, 0, 0, 3, 'n', '2', 0, 0, // node, padding
		0, 0, 0, 1, 0, 0, 0, 0, // client, padding
		0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, // connection's group, padding
		0, 0, 0, 0, 0, 0, 0, 0, // connection seq
		0, 0, 0, 0, // operation id
		0, 0, 0, 0, // oneway, padding
		0, 0, 0, 0, 0, 0, 0, 1, // transfer id
		0, 0, 0, 0, 0, 0, 0, 0, // trace
		0, 0, 0, 1, 'x', // payload
	}},
	{"Audit", []byte{
		13, 0, 0, 0, // kind, padding
		0, 0, 0, 2, 'g', 0, 0, 0, // group, padding
		0, 0, 0, 3, 'n', '1', 0, 0, // node, padding
		0, 0, 0, 1, 0, 0, 0, 0, // client, padding
		0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, // connection's group, padding
		0, 0, 0, 0, 0, 0, 0, 0, // connection seq
		0, 0, 0, 0, // operation id
		0, 0, 0, 0, // oneway, padding
		0, 0, 0, 0, 0, 0, 0, 0, // transfer id
		0, 0, 0, 0, 0, 0, 0, 0, // trace
		0, 0, 0, 0, // payload
	}},
}

// TestRetiredCDREnvelopesAreRejected: a node still writing the CDR layout
// and this one reject each other's envelopes at the first byte.
func TestRetiredCDREnvelopesAreRejected(t *testing.T) {
	for _, r := range retiredCDREnvelopes {
		if _, err := Decode(r.buf); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("%s (kind %d): err = %v, want ErrBadEnvelope", r.name, r.buf[0], err)
		}
	}
}

// retiredCompactEnvelopes are well-formed envelopes of kinds 14–25 — the
// compact layout of today with the spec, table, bundle, manifest and index
// list still CDR inside — as that encoder wrote them, one per kind. Each
// field after the flags is a uvarint or a length-prefixed string; the trace
// is eight bytes.
var retiredCompactEnvelopes = []struct {
	name string
	buf  []byte
}{
	// kind, flags, group, node, client, [connection's group,] seq, op, xfer, trace, payload
	{"Request", []byte{14, 2, 1, 'g', 0, 1, 'c', 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'x'}},
	{"Reply", []byte{15, 0, 0, 0, 1, 'c', 1, 'g', 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'x'}},
	{"CreateGroup", []byte{16, 0, 1, 'g', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'x'}},
	{"RemoveMember", []byte{17, 0, 1, 'g', 2, 'n', '2', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
	{"AddMember", []byte{18, 0, 1, 'g', 2, 'n', '2', 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
	{"Checkpoint", []byte{19, 0, 1, 'g', 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
	{"SyncRequest", []byte{20, 2, 0, 2, 'n', '2', 2, 'n', '1', 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
	{"SyncState", []byte{21, 2, 0, 2, 'n', '2', 2, 'n', '1', 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'x'}},
	{"StateChunk", []byte{22, 0, 1, 'g', 2, 'n', '1', 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'x'}},
	{"StateManifest", []byte{23, 0, 1, 'g', 2, 'n', '1', 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'x'}},
	{"StateRetransmit", []byte{24, 0, 1, 'g', 2, 'n', '2', 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'x'}},
	{"Audit", []byte{25, 0, 1, 'g', 2, 'n', '1', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
}

// retiredStateRetransmit is the compact envelope of kind 36, the
// retransmit-by-index request for a state transfer's chunks (transfer 1,
// index list "x"), as this layout wrote it until a state transfer came to
// trust Totem's delivery and stopped asking for chunks again.
var retiredStateRetransmit = []byte{36, 0, 1, 'g', 2, 'n', '2', 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'x'}

// TestRetiredCompactEnvelopesAreRejected: five of those kinds carry a
// payload whose layout changed under an unchanged envelope, so all twelve
// moved to fresh numbers. A node of that layout and this one reject each
// other's envelopes at the first byte instead of half-working; the same
// envelope under today's number decodes — except StateRetransmit's, kind 36,
// retired in its turn and rejected at the first byte like the rest.
func TestRetiredCompactEnvelopesAreRejected(t *testing.T) {
	for i, r := range retiredCompactEnvelopes {
		if _, err := Decode(r.buf); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("%s (kind %d): err = %v, want ErrBadEnvelope", r.name, r.buf[0], err)
		}
		live := append([]byte{byte(KRequest) + byte(i)}, r.buf[1:]...)
		e, err := Decode(live)
		if bytes.Equal(live, retiredStateRetransmit) {
			if !errors.Is(err, ErrBadEnvelope) {
				t.Errorf("%s as kind %d: err = %v, want ErrBadEnvelope", r.name, live[0], err)
			}
			continue
		}
		if err != nil || e.Kind.String() != r.name {
			t.Errorf("%s as kind %d: %v, %v", r.name, live[0], e, err)
		}
	}
}

func TestQuickEnvelopeRoundTrip(t *testing.T) {
	kinds := slices.Collect(maps.Keys(kindNames))
	f := func(k uint8, group, node, client string, sameGroup bool, seq uint64, op uint32, oneway bool, xfer, trace uint64, payload []byte) bool {
		in := &Envelope{
			Kind:    kinds[int(k)%len(kinds)],
			Group:   group,
			Node:    node,
			Conn:    ConnID{Client: client, Group: client + "/g", Seq: seq},
			OpID:    op,
			Oneway:  oneway,
			XferID:  xfer,
			Trace:   trace,
			Payload: payload,
		}
		if sameGroup {
			in.Conn.Group = group
		}
		out, err := Decode(in.Encode())
		return err == nil && sameEnvelope(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeRobust(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = Decode(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func spec() *GroupSpec {
	return &GroupSpec{
		Name:     "bank",
		TypeName: "Account",
		Props: ftcorba.Properties{
			Style:              ftcorba.WarmPassive,
			InitialReplicas:    3,
			MinReplicas:        2,
			CheckpointInterval: 250 * time.Millisecond,
		},
		Nodes: []string{"n1", "n2", "n3"},
	}
}

func TestSpecRoundTrip(t *testing.T) {
	in := spec()
	out, err := DecodeSpec(EncodeSpec(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.TypeName != in.TypeName ||
		out.Props != in.Props || len(out.Nodes) != 3 || out.Nodes[2] != "n3" {
		t.Fatalf("got %+v", out)
	}
}

func TestTableCreateAndPrimary(t *testing.T) {
	tb := NewTable()
	g, err := tb.Create(spec())
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := g.Primary(); !ok || p != "n1" {
		t.Fatalf("primary = %q, %v", p, ok)
	}
	if _, err := tb.Create(spec()); !errors.Is(err, ErrGroupExists) {
		t.Fatalf("err = %v", err)
	}
	if !g.IsPrimary("n1") || g.IsPrimary("n2") {
		t.Fatal("IsPrimary wrong")
	}
	if got := g.OperationalMembers(); len(got) != 3 {
		t.Fatalf("operational = %v", got)
	}
}

func TestTableCreateValidates(t *testing.T) {
	tb := NewTable()
	bad := spec()
	bad.Props.MinReplicas = 10
	if _, err := tb.Create(bad); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestPrimaryFailover(t *testing.T) {
	tb := NewTable()
	tb.Create(spec())
	affected := tb.NodeFailed("n1")
	if len(affected) != 1 || affected[0] != "bank" {
		t.Fatalf("affected = %v", affected)
	}
	g, _ := tb.Get("bank")
	if p, _ := g.Primary(); p != "n2" {
		t.Fatalf("new primary = %q", p)
	}
	// Failing a node that hosts nothing affects nothing.
	if affected := tb.NodeFailed("ghost"); len(affected) != 0 {
		t.Fatalf("affected = %v", affected)
	}
}

func TestRemoveMember(t *testing.T) {
	tb := NewTable()
	tb.Create(spec())
	removed, err := tb.RemoveMember("bank", "n2")
	if err != nil || !removed {
		t.Fatalf("removed=%v err=%v", removed, err)
	}
	removed, err = tb.RemoveMember("bank", "n2")
	if err != nil || removed {
		t.Fatal("double removal must be a no-op")
	}
	if _, err := tb.RemoveMember("ghost", "n1"); !errors.Is(err, ErrGroupUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecoveringLifecycle(t *testing.T) {
	tb := NewTable()
	tb.Create(spec())
	tb.RemoveMember("bank", "n3")
	g, err := tb.AddRecovering("bank", "n3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddRecovering("bank", "n3"); !errors.Is(err, ErrMemberExists) {
		t.Fatalf("err = %v", err)
	}
	// Recovering members are not operational and cannot be primary.
	if got := g.OperationalMembers(); len(got) != 2 {
		t.Fatalf("operational = %v", got)
	}
	if err := tb.MarkOperational("bank", "n3"); err != nil {
		t.Fatal(err)
	}
	if got := g.OperationalMembers(); len(got) != 3 {
		t.Fatalf("operational after mark = %v", got)
	}
}

func TestRecoveryTarget(t *testing.T) {
	tb := NewTable()
	tb.Create(spec())
	g, _ := tb.Get("bank")
	// All placement nodes host members: spare is the extra live node.
	if n, ok := g.RecoveryTarget([]string{"n1", "n2", "n3", "n4"}); !ok || n != "n4" {
		t.Fatalf("target = %q, %v", n, ok)
	}
	// After n2 dies, the preferred target is n2's configured slot... which
	// is dead, so placement prefers a configured node that is live.
	tb.NodeFailed("n2")
	if n, ok := g.RecoveryTarget([]string{"n1", "n3", "n4"}); !ok || n != "n4" {
		t.Fatalf("target = %q, %v", n, ok)
	}
	// A restarted n2 is preferred (it is in the configured placement).
	if n, ok := g.RecoveryTarget([]string{"n1", "n2", "n3", "n4"}); !ok || n != "n2" {
		t.Fatalf("target = %q, %v", n, ok)
	}
	// No spare at all.
	tb2 := NewTable()
	tb2.Create(spec())
	g2, _ := tb2.Get("bank")
	if _, ok := g2.RecoveryTarget([]string{"n1", "n2", "n3"}); ok {
		t.Fatal("no target expected")
	}
}

func TestDupFilter(t *testing.T) {
	f := NewDupFilter()
	conn := ConnID{Client: "c", Group: "g", Seq: 0}
	if !f.FirstDelivery(conn, 1) {
		t.Fatal("first must pass")
	}
	if f.FirstDelivery(conn, 1) {
		t.Fatal("duplicate must be suppressed")
	}
	if !f.FirstDelivery(conn, 2) {
		t.Fatal("next must pass")
	}
	if f.FirstDelivery(conn, 1) {
		t.Fatal("older must be suppressed")
	}
	other := ConnID{Client: "c", Group: "g", Seq: 1}
	if !f.FirstDelivery(other, 1) {
		t.Fatal("independent connection must pass")
	}
}

func TestDupFilterSnapshotRestore(t *testing.T) {
	f := NewDupFilter()
	a := ConnID{Client: "x", Group: "g", Seq: 0}
	b := ConnID{Client: "y", Group: "g", Seq: 3}
	f.FirstDelivery(a, 10)
	f.FirstDelivery(b, 20)
	raw := EncodeFilterState(f.Snapshot())
	state, err := DecodeFilterState(raw)
	if err != nil {
		t.Fatal(err)
	}
	g := NewDupFilter()
	g.Restore(state)
	if g.FirstDelivery(a, 10) || g.FirstDelivery(b, 19) {
		t.Fatal("restored filter must remember high-water marks")
	}
	if !g.FirstDelivery(a, 11) {
		t.Fatal("restored filter must accept new ops")
	}
	if hi, ok := g.Peek(b); !ok || hi != 20 {
		t.Fatalf("peek = %d, %v", hi, ok)
	}
}

func TestFilterStateEncodingDeterministic(t *testing.T) {
	f := NewDupFilter()
	for i := 0; i < 20; i++ {
		f.FirstDelivery(ConnID{Client: string(rune('a' + i)), Group: "g", Seq: uint64(i)}, uint32(i))
	}
	one := EncodeFilterState(f.Snapshot())
	two := EncodeFilterState(f.Snapshot())
	if !bytes.Equal(one, two) {
		t.Fatal("encoding must be deterministic (sorted)")
	}
}

func TestGroupClone(t *testing.T) {
	tb := NewTable()
	g, _ := tb.Create(spec())
	c := g.Clone()
	tb.RemoveMember("bank", "n1")
	if len(c.Members) != 3 {
		t.Fatal("clone must be independent")
	}
}

func TestDupFilterMergeMax(t *testing.T) {
	f := NewDupFilter()
	conn := ConnID{Client: "c", Group: "g"}
	f.FirstDelivery(conn, 59) // the backup already logged op 59
	// A checkpoint captured at op 58 must not rewind the filter.
	f.MergeMax(map[ConnID]uint32{conn: 58})
	if f.FirstDelivery(conn, 59) {
		t.Fatal("rewound filter re-admitted a seen operation")
	}
	// But it raises connections the filter had not seen.
	other := ConnID{Client: "d", Group: "g"}
	f.MergeMax(map[ConnID]uint32{other: 10})
	if f.FirstDelivery(other, 10) {
		t.Fatal("merged mark ignored")
	}
	if !f.FirstDelivery(other, 11) {
		t.Fatal("merge must not over-suppress")
	}
}

// Property: two tables fed the same operation sequence end in the same
// state (the determinism the whole system rests on).
func TestQuickTableDeterminism(t *testing.T) {
	type op struct {
		kind byte
		node uint8
	}
	apply := func(tb *Table, ops []op) {
		nodes := []string{"n0", "n1", "n2", "n3"}
		tb.Create(spec())
		for _, o := range ops {
			node := nodes[int(o.node)%len(nodes)]
			switch o.kind % 4 {
			case 0:
				tb.RemoveMember("bank", node)
			case 1:
				tb.AddRecovering("bank", node)
			case 2:
				tb.MarkOperational("bank", node)
			case 3:
				tb.NodeFailed(node)
			}
		}
	}
	f := func(kinds []byte, nodes []byte) bool {
		n := len(kinds)
		if len(nodes) < n {
			n = len(nodes)
		}
		ops := make([]op, n)
		for i := 0; i < n; i++ {
			ops[i] = op{kind: kinds[i], node: nodes[i]}
		}
		a, b := NewTable(), NewTable()
		apply(a, ops)
		apply(b, ops)
		return bytes.Equal(a.EncodeTable(), b.EncodeTable())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: table snapshots round-trip exactly.
func TestQuickTableSnapshotRoundTrip(t *testing.T) {
	f := func(removes []uint8) bool {
		tb := NewTable()
		tb.Create(spec())
		nodes := []string{"n1", "n2", "n3"}
		for _, r := range removes {
			tb.RemoveMember("bank", nodes[int(r)%len(nodes)])
		}
		decoded, err := DecodeTable(tb.EncodeTable())
		if err != nil {
			return false
		}
		return bytes.Equal(decoded.EncodeTable(), tb.EncodeTable())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
