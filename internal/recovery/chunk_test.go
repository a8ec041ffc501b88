package recovery

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

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

func TestAssemblyHappyPath(t *testing.T) {
	enc := testPayload(9000)
	chunks := SplitChunks(enc, 2048)
	m := NewManifest(enc, chunks, 2048)
	a := NewAssembly()
	for i, c := range chunks {
		if err := a.AddChunk(i, c); err != nil {
			t.Fatal(err)
		}
	}
	missing, dropped := a.SetManifest(m)
	if len(missing) != 0 || dropped != 0 {
		t.Fatalf("missing=%v dropped=%d", missing, dropped)
	}
	if !a.Complete() {
		t.Fatal("not complete")
	}
	if !bytes.Equal(a.Bytes(), enc) {
		t.Fatal("reassembly mismatch")
	}
}

func TestAssemblyMissingAndRetransmit(t *testing.T) {
	enc := testPayload(9000)
	chunks := SplitChunks(enc, 2048)
	m := NewManifest(enc, chunks, 2048)
	a := NewAssembly()
	for i, c := range chunks {
		if i == 1 || i == 3 {
			continue // lost in transit
		}
		if err := a.AddChunk(i, c); err != nil {
			t.Fatal(err)
		}
	}
	missing, _ := a.SetManifest(m)
	if len(missing) != 2 || missing[0] != 1 || missing[1] != 3 {
		t.Fatalf("missing = %v", missing)
	}
	if a.Complete() {
		t.Fatal("complete with missing chunks")
	}
	// Post-manifest retransmissions are verified immediately.
	if err := a.AddChunk(1, chunks[3]); err == nil {
		t.Fatal("wrong chunk at index 1 accepted")
	}
	if err := a.AddChunk(1, chunks[1]); err != nil {
		t.Fatal(err)
	}
	if err := a.AddChunk(3, chunks[3]); err != nil {
		t.Fatal(err)
	}
	if !a.Complete() || !bytes.Equal(a.Bytes(), enc) {
		t.Fatal("reassembly after retransmit failed")
	}
}

func TestAssemblyChecksumMismatchDropped(t *testing.T) {
	enc := testPayload(6000)
	chunks := SplitChunks(enc, 2048)
	m := NewManifest(enc, chunks, 2048)
	a := NewAssembly()
	corrupt := append([]byte(nil), chunks[1]...)
	corrupt[10] ^= 0xFF
	_ = a.AddChunk(0, chunks[0])
	_ = a.AddChunk(1, corrupt) // pre-manifest: accepted provisionally
	_ = a.AddChunk(2, chunks[2])
	missing, dropped := a.SetManifest(m)
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if len(missing) != 1 || missing[0] != 1 {
		t.Fatalf("missing = %v, want [1]", missing)
	}
	// The same corruption after the manifest is rejected outright.
	if err := a.AddChunk(1, corrupt); !errors.Is(err, ErrChunkMismatch) {
		t.Fatalf("corrupt retransmission: err = %v", err)
	}
	if err := a.AddChunk(1, chunks[1]); err != nil {
		t.Fatal(err)
	}
	if !a.Complete() {
		t.Fatal("not complete after good retransmission")
	}
}

func TestAssemblyExtraChunksTruncated(t *testing.T) {
	enc := testPayload(4000)
	chunks := SplitChunks(enc, 2048)
	m := NewManifest(enc, chunks, 2048)
	a := NewAssembly()
	_ = a.AddChunk(0, chunks[0])
	_ = a.AddChunk(1, chunks[1])
	_ = a.AddChunk(7, testPayload(100)) // stray index beyond the manifest
	missing, dropped := a.SetManifest(m)
	if len(missing) != 0 || dropped != 1 {
		t.Fatalf("missing=%v dropped=%d", missing, dropped)
	}
	if err := a.AddChunk(7, testPayload(100)); !errors.Is(err, ErrChunkMismatch) {
		t.Fatalf("out-of-range post-manifest chunk: err = %v", err)
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

func TestIndexListRoundTrip(t *testing.T) {
	idx := []uint32{0, 3, 17, 1 << 20}
	out, err := DecodeIndexList(EncodeIndexList(idx))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(idx) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range idx {
		if out[i] != idx[i] {
			t.Fatalf("idx[%d] = %d, want %d", i, out[i], idx[i])
		}
	}
	if _, err := DecodeIndexList([]byte{1}); err == nil {
		t.Fatal("truncated index list decoded")
	}
}

// --- incremental checkpoint policy and ring-backed log ---

func TestLogCheckpointPolicyCount(t *testing.T) {
	l := NewLog()
	now := time.Now()
	l.SetPolicy(3, 0, now)
	if l.CheckpointDue(now) {
		t.Fatal("due before any messages")
	}
	for i := 0; i < 2; i++ {
		l.Append(&replication.Envelope{Kind: replication.KRequest})
	}
	if l.CheckpointDue(now) {
		t.Fatal("due after 2 of 3 messages")
	}
	l.NoteExecuted() // the primary's execution path counts too
	if !l.CheckpointDue(now) {
		t.Fatal("not due after 3 messages")
	}
	l.NoteCheckpoint(now)
	if l.CheckpointDue(now) {
		t.Fatal("due immediately after NoteCheckpoint")
	}
}

func TestLogCheckpointPolicyAge(t *testing.T) {
	l := NewLog()
	start := time.Now()
	l.SetPolicy(0, 100*time.Millisecond, start)
	if l.CheckpointDue(start.Add(50 * time.Millisecond)) {
		t.Fatal("due before maxAge")
	}
	if !l.CheckpointDue(start.Add(150 * time.Millisecond)) {
		t.Fatal("not due after maxAge")
	}
	l.NoteCheckpoint(start.Add(150 * time.Millisecond))
	if l.CheckpointDue(start.Add(200 * time.Millisecond)) {
		t.Fatal("due again too soon")
	}
}

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
	l.SetPolicy(10, time.Hour, time.Now())
	for i := uint32(1); i <= 5; i++ {
		l.Append(&replication.Envelope{Kind: replication.KRequest, OpID: i})
	}
	l.TruncateTo([]byte("ckpt"), 3)
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
	// Policy survives Reset (a promoted backup keeps checkpointing).
	for i := 0; i < 10; i++ {
		l.Append(&replication.Envelope{Kind: replication.KRequest})
	}
	if !l.CheckpointDue(time.Now()) {
		t.Fatal("policy lost across Reset")
	}
}

// TestAssemblyPreManifestIndexIsBounded: before the manifest a chunk's
// index is whatever the wire said. Holding it must cost one chunk, not a
// table sized by the index, and an index no manifest could name is
// rejected outright.
func TestAssemblyPreManifestIndexIsBounded(t *testing.T) {
	enc := testPayload(4000)
	chunks := SplitChunks(enc, 2048)
	a := NewAssembly()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := a.AddChunk(MaxChunks-1, testPayload(100)); err != nil {
		t.Fatalf("largest nameable index refused before the manifest: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("holding one stray chunk at index %d allocated %d bytes", MaxChunks-1, grew)
	}
	for _, idx := range []int{-1, MaxChunks, 0xFFFFFFFF} {
		if err := a.AddChunk(idx, testPayload(100)); !errors.Is(err, ErrChunkMismatch) {
			t.Fatalf("index %d: err = %v, want ErrChunkMismatch", idx, err)
		}
	}
	_ = a.AddChunk(1, chunks[1])
	missing, dropped := a.SetManifest(NewManifest(enc, chunks, 2048))
	if len(missing) != 1 || missing[0] != 0 || dropped != 1 {
		t.Fatalf("missing=%v dropped=%d, want chunk 0 missing and the stray dropped", missing, dropped)
	}
	if err := a.AddChunk(0, chunks[0]); err != nil || !a.Complete() || !bytes.Equal(a.Bytes(), enc) {
		t.Fatalf("assembly after the stray: err=%v complete=%t", err, a.Complete())
	}
}
