package replication

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
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
	for _, e := range []*Envelope{
		{Kind: KRequest, Group: "bank", Conn: ConnID{Client: "teller", Group: "bank", Seq: 2}, OpID: 351, Trace: 0x1234_5678_9abc_def0, Payload: []byte{0xDE, 0xAD}},
		{Kind: KRequest, Group: "bank", Conn: ConnID{Client: "teller", Group: "bank"}, OpID: 352, Oneway: true},
		{Kind: KReply, Conn: ConnID{Client: "teller", Group: "bank", Seq: 2}, OpID: 351, Trace: 1, Payload: []byte("reply")},
		{Kind: KStateChunk, Group: "bank", Node: "n3", OpID: 1<<32 - 1, XferID: 1<<64 - 1, Trace: 1<<64 - 1, Payload: []byte("chunk")},
		{Kind: KSyncRequest, Node: "n2", Conn: ConnID{Client: "n1", Seq: 4}},
	} {
		f.Add(e.Encode())
	}
	for _, r := range append(retiredCDREnvelopes, retiredCompactEnvelopes...) {
		f.Add(r.buf)
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
	for _, a := range []AuditRecord{{Epoch: 12345, LSN: 678, Digest: 0xdeadbeef, StateBytes: 4096}, {}} {
		f.Add(a.Encode())
	}
	f.Add(append((&AuditRecord{Epoch: 1}).Encode(), 0))
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
	fuzzState(f, slices.Concat(ds["table"].good, ds["spec"].good, [][]byte{repeated}), "table", "spec")
}
