package recovery

import (
	"bytes"
	"errors"
	"testing"

	"eternal/internal/replication"
)

func testPayload(n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		// Mix in the high bits so distinct offsets yield distinct chunks.
		buf[i] = byte(i*7 ^ (i >> 8 * 31) ^ (i >> 13))
	}
	return buf
}

func TestSplitChunksAndManifest(t *testing.T) {
	enc := testPayload(10_000)
	chunks := SplitChunks(enc, 4096)
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	if len(chunks[0]) != 4096 || len(chunks[2]) != 10_000-2*4096 {
		t.Fatalf("chunk sizes wrong: %d, %d", len(chunks[0]), len(chunks[2]))
	}
	m := NewManifest(enc, chunks, 4096)
	if m.Count() != 3 || m.TotalBytes != 10_000 || m.ChunkBytes != 4096 {
		t.Fatalf("manifest = %+v", m)
	}
	round, err := DecodeManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if round.Count() != 3 || round.TotalBytes != m.TotalBytes || round.Checksums[1] != m.Checksums[1] {
		t.Fatalf("roundtrip manifest = %+v", round)
	}
}

func TestSplitChunksEdgeCases(t *testing.T) {
	if got := SplitChunks(nil, 1024); got != nil {
		t.Fatalf("empty input produced %d chunks", len(got))
	}
	// Exact multiple: no stub chunk.
	if got := SplitChunks(testPayload(8192), 4096); len(got) != 2 {
		t.Fatalf("exact multiple split into %d chunks", len(got))
	}
	// chunkBytes <= 0 selects the default.
	if got := SplitChunks(testPayload(DefaultChunkBytes+1), 0); len(got) != 2 {
		t.Fatalf("default split into %d chunks", len(got))
	}
}

// TestAssembly: a donor's chunks reach a receiver in index order, ahead of
// their manifest, and that stream is the only one an assembly accepts. A
// gap, a repeat, a stray or a corrupt chunk breaks it — for good, whatever
// follows — and the manifest then refuses it.
func TestAssembly(t *testing.T) {
	enc := testPayload(9000)
	chunks := SplitChunks(enc, 2048) // five, the last one short
	m := NewManifest(enc, chunks, 2048)
	for _, tc := range []struct {
		name    string
		indexes []int // chunk i's payload, or a 100-byte stray past the end
		corrupt bool  // chunk 2 arrives with a flipped byte
		ok      bool
	}{
		{name: "in-order", indexes: []int{0, 1, 2, 3, 4}, ok: true},
		{name: "one-missing", indexes: []int{0, 1, 3, 4}},
		{name: "last-missing", indexes: []int{0, 1, 2, 3}},
		{name: "repeated", indexes: []int{0, 1, 1, 2, 3, 4}},
		{name: "stray-past-the-end", indexes: []int{0, 1, 2, 3, 4, 5}},
		{name: "hostile-index", indexes: []int{MaxChunks - 1, -1, MaxChunks, 0, 1, 2, 3, 4}},
		{name: "corrupt", indexes: []int{0, 1, 2, 3, 4}, corrupt: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAssembly()
			broken := false
			grew := allocated(func() {
				for _, i := range tc.indexes {
					payload := testPayload(100)
					if i >= 0 && i < len(chunks) {
						payload = chunks[i]
					}
					if i == 2 && tc.corrupt {
						payload = append([]byte(nil), payload...)
						payload[10] ^= 0xFF
					}
					err := a.AddChunk(i, payload)
					if broken && err == nil {
						t.Fatalf("chunk %d accepted after the assembly broke", i)
					}
					broken = broken || err != nil
				}
			})
			if tc.name == "hostile-index" && grew > 64<<10 {
				t.Fatalf("a stray at index %d and the refused chunks after it allocated %d bytes", MaxChunks-1, grew)
			}
			err := a.SetManifest(m)
			if !tc.ok {
				if !errors.Is(err, ErrChunkMismatch) {
					t.Fatalf("manifest accepted a broken stream: err = %v", err)
				}
				return
			}
			if err != nil || !bytes.Equal(a.Bytes(), enc) {
				t.Fatalf("in-order stream: err = %v, reassembly equal = %t", err, err == nil && bytes.Equal(a.Bytes(), enc))
			}
			if err := a.AddChunk(len(chunks), testPayload(100)); !errors.Is(err, ErrChunkMismatch) {
				t.Fatalf("chunk after the manifest: err = %v", err)
			}
		})
	}
}

func TestDecodeManifestHostile(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		// Inconsistent: claims 5 checksums for 100 bytes at 60/chunk (want 2).
		(&Manifest{TotalBytes: 100, ChunkBytes: 60, Checksums: make([]uint32, 5)}).Encode(),
		// Zero chunk size with nonzero total.
		(&Manifest{TotalBytes: 100, ChunkBytes: 0, Checksums: nil}).Encode(),
	}
	for i, buf := range cases {
		if _, err := DecodeManifest(buf); err == nil {
			t.Fatalf("case %d: hostile manifest decoded", i)
		}
	}
}

// --- ring-backed log ---

func TestLogEachAndMessagesCopy(t *testing.T) {
	l := NewLog()
	for i := uint32(1); i <= 4; i++ {
		l.Append(&replication.Envelope{Kind: replication.KRequest, OpID: i})
	}
	var got []uint32
	l.Each(func(e *replication.Envelope) { got = append(got, e.OpID) })
	if len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("Each order = %v", got)
	}
	msgs := l.Messages()
	msgs[0] = nil // mutating the copy must not corrupt the log
	var again []uint32
	l.Each(func(e *replication.Envelope) { again = append(again, e.OpID) })
	if again[0] != 1 {
		t.Fatal("Messages() returned the log's own storage")
	}
}

func TestLogTruncateAndReset(t *testing.T) {
	l := NewLog()
	for i := uint32(1); i <= 5; i++ {
		l.Append(&replication.Envelope{Kind: replication.KRequest, OpID: i})
	}
	if dropped := l.TruncateTo([]byte("ckpt"), 3); dropped != 3 {
		t.Fatalf("TruncateTo(3) discarded %d", dropped)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d after TruncateTo(3)", l.Len())
	}
	if msgs := l.Messages(); msgs[0].OpID != 4 || msgs[1].OpID != 5 {
		t.Fatalf("tail = %d,%d", msgs[0].OpID, msgs[1].OpID)
	}
	if _, ok := l.Checkpoint(); !ok {
		t.Fatal("no checkpoint recorded")
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("Len = %d after Reset", l.Len())
	}
	if _, ok := l.Checkpoint(); ok {
		t.Fatal("checkpoint survived Reset")
	}
	// A checkpoint without bytes (a warm backup's, whose instance holds the
	// state) still discards what it subsumes.
	l.Append(&replication.Envelope{Kind: replication.KRequest, OpID: 6})
	if dropped := l.TruncateTo(nil, 1); dropped != 1 || l.Len() != 0 {
		t.Fatalf("TruncateTo(nil, 1) discarded %d, Len = %d", dropped, l.Len())
	}
	if _, ok := l.Checkpoint(); ok {
		t.Fatal("a checkpoint without bytes kept some")
	}
}
