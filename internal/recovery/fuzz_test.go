package recovery

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"
)

// The decoders a state transfer feeds take their input off the ring from
// whichever member claims to be a donor (manifest, chunks) or a receiver
// (retransmit request). They must never panic, never allocate more than a
// small multiple of what they were handed, and whatever they accept must
// re-encode to the bytes it came from.

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

func manifestSeeds() [][]byte {
	enc := testPayload(4000)
	return [][]byte{
		NewManifest(enc, SplitChunks(enc, 2048), 2048).Encode(),
		NewManifest(enc, SplitChunks(enc, 4000), 4000).Encode(),
		NewManifest(enc[:1], SplitChunks(enc[:1], 0), 0).Encode(),
		NewManifest(nil, nil, 2048).Encode(),
		nil,
		{1, 2, 3},
		// TestDecodeManifestHostile's: more checksums than the bytes need,
		// and a zero chunk size.
		(&Manifest{TotalBytes: 100, ChunkBytes: 60, Checksums: make([]uint32, 5)}).Encode(),
		(&Manifest{TotalBytes: 100, ChunkBytes: 0}).Encode(),
		// A chunk count no input of this size can back, and a total that
		// wraps the count check round to "no chunks at all".
		binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<40), 1<<16), 1<<24),
		(&Manifest{TotalBytes: 1<<64 - 1, ChunkBytes: 2}).Encode(),
	}
}

func FuzzDecodeManifest(f *testing.F) {
	for _, seed := range manifestSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		var m *Manifest
		var err error
		if grew := allocated(func() { m, err = DecodeManifest(buf) }); grew > allocBound(len(buf)) {
			t.Fatalf("decoding %d bytes allocated %d", len(buf), grew)
		}
		if err != nil {
			return
		}
		if again := m.Encode(); !bytes.Equal(again, buf) {
			t.Fatalf("accepted manifest %+v re-encodes to %d bytes, not the %d it came from", m, len(again), len(buf))
		}
		// What Assembly relies on: the chunks, at their sizes, are exactly
		// TotalBytes — so Bytes() allocates what the chunks held amount to.
		n, size := uint64(m.Count()), uint64(m.ChunkBytes)
		if m.TotalBytes > n*size || (n > 0 && m.TotalBytes <= (n-1)*size) {
			t.Fatalf("accepted manifest: %d bytes in %d chunks of %d", m.TotalBytes, n, size)
		}
	})
}

func FuzzDecodeIndexList(f *testing.F) {
	f.Add(EncodeIndexList([]uint32{0, 3, 17, 1 << 20}))
	f.Add(EncodeIndexList(nil))
	f.Add([]byte{1})
	f.Add(binary.AppendUvarint(nil, MaxChunks-1)) // 16M indexes, none of them there
	f.Fuzz(func(t *testing.T, buf []byte) {
		var idx []uint32
		var err error
		if grew := allocated(func() { idx, err = DecodeIndexList(buf) }); grew > allocBound(len(buf)) {
			t.Fatalf("decoding %d bytes allocated %d", len(buf), grew)
		}
		if err != nil {
			return
		}
		if again := EncodeIndexList(idx); !bytes.Equal(again, buf) {
			t.Fatalf("accepted list of %d re-encodes to %d bytes, not the %d it came from", len(idx), len(again), len(buf))
		}
	})
}

// FuzzDecodeBundle: what a state transfer or a checkpoint assembles to.
func FuzzDecodeBundle(f *testing.F) {
	for _, seed := range bundleSeeds() {
		f.Add(seed)
	}
	for _, seed := range hostileBundles() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		var b *Bundle
		var err error
		if grew := allocated(func() { b, err = DecodeBundle(buf) }); grew > allocBound(len(buf)) {
			t.Fatalf("decoding %d bytes allocated %d", len(buf), grew)
		}
		if err != nil {
			return
		}
		if again := b.Encode(); !bytes.Equal(again, buf) {
			t.Fatalf("accepted bundle %+v re-encodes to %x, not %x", b, again, buf)
		}
	})
}

// Assembly scripts: a sequence of operations, each one byte of kind and,
// for a chunk, a big-endian int32 index, a uint16 length and that many
// bytes of payload (fewer if the script ends).
const (
	opChunk    = iota // AddChunk(index, payload)
	opManifest        // SetManifest(the fuzzed manifest, if it decodes)
	opFill            // add, for every chunk still missing, one its manifest verifies
	opKinds
)

func chunkOp(idx int32, payload []byte) []byte {
	op := []byte{opChunk}
	op = binary.BigEndian.AppendUint32(op, uint32(idx))
	op = binary.BigEndian.AppendUint16(op, uint16(len(payload)))
	return append(op, payload...)
}

// FuzzAssembly plays hostile chunk indexes and sizes at an Assembly before
// and after a hostile manifest. A refused chunk leaves it as it was; what
// it holds after the manifest is what the manifest verifies; and once
// complete — here by a sender that makes its manifest's checksums fit
// whatever it sends, as a hostile one would — Bytes() is TotalBytes long.
func FuzzAssembly(f *testing.F) {
	enc := testPayload(4000)
	chunks := SplitChunks(enc, 2048)
	good := NewManifest(enc, chunks, 2048).Encode()
	// TestAssemblyPreManifestIndexIsBounded's run, and the streaming order.
	f.Add(good, bytes.Join([][]byte{
		chunkOp(MaxChunks-1, testPayload(100)), chunkOp(-1, testPayload(100)), chunkOp(MaxChunks, nil),
		chunkOp(1, chunks[1]), {opManifest}, chunkOp(0, chunks[0]),
	}, nil))
	f.Add(good, bytes.Join([][]byte{chunkOp(0, chunks[0]), chunkOp(1, chunks[1]), {opManifest}}, nil))
	// TestAssemblyChecksumMismatchDropped's and …ExtraChunksTruncated's.
	f.Add(good, bytes.Join([][]byte{chunkOp(0, chunks[1]), chunkOp(7, chunks[0]), {opManifest}, {opFill}}, nil))
	for _, m := range manifestSeeds() {
		f.Add(m, []byte{opManifest, opFill})
	}
	f.Fuzz(func(t *testing.T, manifest, script []byte) {
		a := NewAssembly()
		decoded, _ := DecodeManifest(manifest)
		var m *Manifest // decoded, once the script has installed it
		for len(script) > 0 {
			kind := script[0] % opKinds
			script = script[1:]
			switch kind {
			case opChunk:
				if len(script) < 6 {
					return
				}
				idx := int(int32(binary.BigEndian.Uint32(script)))
				size := min(int(binary.BigEndian.Uint16(script[4:])), len(script)-6)
				payload := script[6 : 6+size]
				script = script[6+size:]
				held := len(a.chunks)
				_, had := a.chunks[idx]
				switch err := a.AddChunk(idx, payload); {
				case err != nil && len(a.chunks) != held:
					t.Fatalf("refused chunk %d (%v) changed what is held", idx, err)
				case err == nil && (idx < 0 || idx >= MaxChunks || (m != nil && idx >= m.Count())):
					t.Fatalf("accepted chunk at index %d", idx)
				case err == nil && !had && len(a.chunks) != held+1:
					t.Fatalf("accepted chunk %d, held %d before and %d after", idx, held, len(a.chunks))
				}
			case opManifest:
				if decoded == nil {
					continue
				}
				m = decoded
				held := len(a.chunks)
				var missing []uint32
				var dropped int
				if grew := allocated(func() { missing, dropped = a.SetManifest(m) }); grew > allocBound(len(manifest)) {
					t.Fatalf("installing a %d-byte manifest allocated %d", len(manifest), grew)
				}
				if len(a.chunks)+dropped != held || len(a.chunks)+len(missing) != m.Count() {
					t.Fatalf("manifest of %d: held %d, then %d with %d dropped and %d missing", m.Count(), held, len(a.chunks), dropped, len(missing))
				}
			case opFill:
				if m == nil || m.TotalBytes > 1<<20 || m.Count() > 1<<10 {
					continue
				}
				for _, idx := range a.Missing() {
					size := uint64(m.ChunkBytes)
					if rem := m.TotalBytes % size; int(idx) == m.Count()-1 && rem != 0 {
						size = rem
					}
					payload := make([]byte, size)
					m.Checksums[idx] = crc32.ChecksumIEEE(payload)
					if err := a.AddChunk(int(idx), payload); err != nil {
						t.Fatalf("chunk %d made to its manifest's measure refused: %v", idx, err)
					}
				}
			}
			if m != nil && kind != opChunk {
				for idx, c := range a.chunks {
					if idx >= m.Count() || m.verifyChunk(idx, c) != nil {
						t.Fatalf("holds chunk %d of %d that its manifest does not verify", idx, m.Count())
					}
				}
			}
			if (kind != opChunk || m != nil && m.Count() <= 1<<10) && a.Complete() {
				if got := a.Bytes(); uint64(len(got)) != m.TotalBytes {
					t.Fatalf("complete at %d bytes, manifest says %d", len(got), m.TotalBytes)
				}
			}
		}
	})
}
