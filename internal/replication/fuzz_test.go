package replication

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"eternal/internal/cdr"
	"eternal/internal/giop"
)

// allocated reports the bytes f allocated (and whatever the test runtime
// allocated beside it: the bound below leaves room).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is "a small multiple of the input".
func allocBound(input int) uint64 { return 64<<10 + 16*uint64(input) }

// FuzzDecodeEnvelope feeds Decode what the ordered-point hook hands it: any
// message some ring member multicast. It must never panic, never allocate
// more than a small multiple of what it was handed (64 KiB + 16× the input,
// the transfer decoders' bound), and whatever it accepts must re-encode to
// the bytes it came from — one envelope, one spelling.
func FuzzDecodeEnvelope(f *testing.F) {
	bench := ConnID{Client: "driver0", Group: "bench"}
	for _, e := range []*Envelope{
		{Kind: KRequest, Group: "bank", Conn: ConnID{Client: "teller", Group: "bank", Seq: 2}, OpID: 351, Payload: []byte{0xDE, 0xAD}},
		{Kind: KRequest, Group: "bank", Conn: ConnID{Client: "teller", Group: "bank"}, OpID: 352, Oneway: true},
		{Kind: KReply, Conn: ConnID{Client: "teller", Group: "bank", Seq: 2}, OpID: 351, Payload: []byte("reply")},
		{Kind: KStateChunk, Group: "bank", Node: "n3", OpID: 1<<32 - 1, XferID: 1<<64 - 1, Payload: []byte("chunk")},
		{Kind: KSyncRequest, Node: "n2", Conn: ConnID{Client: "n1", Seq: 4}},
		// The elided form: whole big-endian GIOP 1.2 messages without
		// their headers, and a little-endian one that travels whole.
		{Kind: KRequest, Group: "bench", Conn: bench, OpID: 1000, Payload: ping(giop.Version12, cdr.BigEndian)},
		{Kind: KReply, Conn: bench, OpID: 1000, Payload: pong(giop.Version12, cdr.BigEndian)},
		{Kind: KRequest, Group: "bench", Conn: bench, OpID: 1000, Payload: ping(giop.Version12, cdr.LittleEndian)},
	} {
		f.Add(e.Encode())
	}
	for _, r := range append(retiredCDREnvelopes, retiredCompactEnvelopes...) {
		f.Add(r.buf)
	}
	for _, buf := range retiredTracedEnvelopes {
		f.Add(buf)
	}
	f.Add(retiredStateRetransmit)
	f.Fuzz(func(t *testing.T, buf []byte) {
		var e *Envelope
		var err error
		if grew := allocated(func() { e, err = Decode(buf) }); grew > allocBound(len(buf)) {
			t.Fatalf("decoding %d bytes allocated %d", len(buf), grew)
		}
		if err != nil {
			return
		}
		if again := e.Encode(); !bytes.Equal(again, buf) {
			t.Fatalf("accepted %+v re-encodes to %d bytes, not the %d it came from", e, len(again), len(buf))
		}
	})
}

// FuzzDecodeAuditRecord: the same for the record a KAudit report carries.
func FuzzDecodeAuditRecord(f *testing.F) {
	for _, a := range []AuditRecord{{Epoch: 12345, Digest: 0xdeadbeef}, {}} {
		f.Add(a.Encode())
	}
	f.Add(append((&AuditRecord{Epoch: 1}).Encode(), 0))
	// The retired 24-byte record: Epoch, LSN, Digest, StateBytes.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0x30, 0x39, 0, 0, 0, 0, 0, 0, 0x02, 0xa6, 0xde, 0xad, 0xbe, 0xef, 0, 0, 0x10, 0})
	f.Fuzz(func(t *testing.T, buf []byte) {
		var a *AuditRecord
		var err error
		if grew := allocated(func() { a, err = DecodeAuditRecord(buf) }); grew > allocBound(len(buf)) {
			t.Fatalf("decoding %d bytes allocated %d", len(buf), grew)
		}
		if err != nil {
			return
		}
		if again := a.Encode(); !bytes.Equal(again, buf) {
			t.Fatalf("accepted %+v re-encodes to %x, not %x", a, again, buf)
		}
	})
}

// fuzzState runs state decoders under the fuzz invariant: no panic, the
// allocation bound, and an accepted input re-encodes to itself.
func fuzzState(f *testing.F, seeds [][]byte, names ...string) {
	for _, seed := range seeds {
		f.Add(seed)
	}
	ds := stateDecoders(f)
	f.Fuzz(func(t *testing.T, buf []byte) {
		for _, name := range names {
			var again []byte
			var err error
			if grew := allocated(func() { again, err = ds[name].decode(buf) }); grew > allocBound(len(buf)) {
				t.Fatalf("%s: decoding %d bytes allocated %d", name, len(buf), grew)
			}
			if err == nil && !bytes.Equal(again, buf) {
				t.Fatalf("accepted %s re-encodes to %x, not %x", name, again, buf)
			}
		}
	})
}

// FuzzDecodeFilterState: the duplicate filter a bundle or checkpoint carries.
func FuzzDecodeFilterState(f *testing.F) {
	seeds := append(stateDecoders(f)["filter state"].good, []byte{0, 0x10, 0, 0}, binary.AppendUvarint(nil, 1<<31))
	fuzzState(f, seeds, "filter state")
}

// FuzzDecodeTable: the table a KSyncState carries, and through it the spec
// each of its groups holds; DecodeSpec, what a KCreateGroup carries, runs on
// every input too.
func FuzzDecodeTable(f *testing.F) {
	ds := stateDecoders(f)
	repeated := bytes.ReplaceAll(ds["table"].good[0], []byte("group-b"), []byte("group-a"))
	retired := [][]byte{retiredTable(sampleTable(f), false), retiredTable(sampleTable(f), true),
		countTriggerTable(sampleTable(f), 0), countTriggerTable(sampleTable(f), 5)}
	fuzzState(f, slices.Concat(ds["table"].good, ds["spec"].good, [][]byte{repeated}, retired), "table", "spec")
}
