package replication

import (
	"errors"
	"testing"
)

func TestAuditRecordRoundTrip(t *testing.T) {
	rec := AuditRecord{Epoch: 12345, Digest: 0xdeadbeef}
	got, err := DecodeAuditRecord(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != rec {
		t.Fatalf("round trip = %+v, want %+v", *got, rec)
	}
}

func TestAuditRecordDecodeTruncated(t *testing.T) {
	raw := (&AuditRecord{Epoch: 1}).Encode()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeAuditRecord(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes decoded without error", cut)
		}
	}
}

// A record with bytes after it is not a record: decoding it and encoding
// the result again would not give back what was received.
func TestAuditRecordDecodeRejectsTrailingBytes(t *testing.T) {
	raw := append((&AuditRecord{Epoch: 1, Digest: 3}).Encode(), 0)
	if _, err := DecodeAuditRecord(raw); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("err = %v, want ErrBadEnvelope", err)
	}
}

// The digest must be identical however the duplicate filter's map was
// populated: EncodeFilterState sorts, so insertion order (and Go's
// randomized map iteration) must not leak into the digest.
func TestDigestStateFilterOrderInsensitive(t *testing.T) {
	conns := []ConnID{
		{Client: "c1", Group: "g", Seq: 0},
		{Client: "c2", Group: "g", Seq: 7},
		{Client: "c3", Group: "h", Seq: 3},
		{Client: "aa", Group: "g", Seq: 9},
	}
	app := []byte("application state bytes")
	forward := NewDupFilter()
	for i, c := range conns {
		forward.FirstDelivery(c, uint32(10+i))
	}
	backward := NewDupFilter()
	for i := len(conns) - 1; i >= 0; i-- {
		backward.FirstDelivery(conns[i], uint32(10+i))
	}
	d1 := DigestState(app, EncodeFilterState(forward.Snapshot()))
	d2 := DigestState(app, EncodeFilterState(backward.Snapshot()))
	if d1 != d2 {
		t.Fatalf("digest depends on filter insertion order: %08x vs %08x", d1, d2)
	}
}

// A filter restored from its encoded state must digest identically to the
// original — the fresh-replica vs recovered-replica case.
func TestDigestStateFreshVsRestored(t *testing.T) {
	f := NewDupFilter()
	for i := 0; i < 20; i++ {
		f.FirstDelivery(ConnID{Client: string(rune('a' + i)), Group: "g", Seq: uint64(i)}, uint32(i))
	}
	app := []byte{1, 2, 3}
	raw := EncodeFilterState(f.Snapshot())
	state, err := DecodeFilterState(raw)
	if err != nil {
		t.Fatal(err)
	}
	g := NewDupFilter()
	g.Restore(state)
	if d1, d2 := DigestState(app, raw), DigestState(app, EncodeFilterState(g.Snapshot())); d1 != d2 {
		t.Fatalf("restored filter digests differently: %08x vs %08x", d1, d2)
	}
}

// The length framing must keep (appState, filterState) unambiguous: moving
// a byte across the boundary must change the digest even though the
// concatenation is identical.
func TestDigestStateFramingUnambiguous(t *testing.T) {
	if DigestState([]byte("ab"), []byte("c")) == DigestState([]byte("a"), []byte("bc")) {
		t.Fatal("digest collides across the app/filter boundary")
	}
	if DigestState(nil, []byte("x")) == DigestState([]byte("x"), nil) {
		t.Fatal("digest collides on swapped empty sides")
	}
}

func TestDigestStateSensitivity(t *testing.T) {
	filter := EncodeFilterState(map[ConnID]uint32{{Client: "c", Group: "g"}: 1})
	base := DigestState([]byte("state"), filter)
	if DigestState([]byte("statf"), filter) == base {
		t.Fatal("app-state change not reflected in digest")
	}
	if DigestState([]byte("state"), EncodeFilterState(map[ConnID]uint32{{Client: "c", Group: "g"}: 2})) == base {
		t.Fatal("filter-state change not reflected in digest")
	}
}
