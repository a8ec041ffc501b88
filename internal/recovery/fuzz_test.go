package recovery

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"
)

// The decoders a state transfer feeds take their input off the ring from
// whichever member claims to be a donor (manifest, chunks). They must never panic, never allocate more than a
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
	opFill            // make the manifest fit the chunks held, and append the ones still due to its measure
	opKinds
)

func chunkOp(idx int32, payload []byte) []byte {
	op := []byte{opChunk}
	op = binary.BigEndian.AppendUint32(op, uint32(idx))
	op = binary.BigEndian.AppendUint16(op, uint16(len(payload)))
	return append(op, payload...)
}

// FuzzAssembly plays hostile chunk indexes and sizes at an Assembly ahead of
// a hostile manifest. Only the next index is ever held, and a refusal before
// the manifest leaves nothing held; SetManifest accepts only chunks it
// verifies, within the allocation bound; and once it has — here, too, for a
// sender that makes its manifest's checksums fit whatever it sends, as a
// hostile one would — Bytes() is TotalBytes long.
func FuzzAssembly(f *testing.F) {
	enc := testPayload(4000)
	chunks := SplitChunks(enc, 2048)
	good := NewManifest(enc, chunks, 2048).Encode()
	// TestAssembly's hostile indexes, and the streaming order.
	f.Add(good, bytes.Join([][]byte{
		chunkOp(MaxChunks-1, testPayload(100)), chunkOp(-1, testPayload(100)), chunkOp(MaxChunks, nil),
		chunkOp(0, chunks[0]), chunkOp(1, chunks[1]), {opManifest},
	}, nil))
	f.Add(good, bytes.Join([][]byte{chunkOp(0, chunks[0]), chunkOp(1, chunks[1]), {opManifest}}, nil))
	// A chunk in the wrong slot, a stray, and a sender fitting its manifest.
	f.Add(good, bytes.Join([][]byte{chunkOp(0, chunks[1]), {opFill}, {opManifest}, chunkOp(7, chunks[0])}, nil))
	for _, m := range manifestSeeds() {
		f.Add(m, []byte{opFill, opManifest})
	}
	f.Fuzz(func(t *testing.T, manifest, script []byte) {
		a := NewAssembly()
		m, _ := DecodeManifest(manifest)
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
				held, open := len(a.chunks), a.err == nil && a.manifest == nil
				switch err := a.AddChunk(idx, payload); {
				case err == nil && (!open || idx != held):
					t.Fatalf("accepted chunk %d with %d held (open %t)", idx, held, open)
				case err == nil && len(a.chunks) != held+1:
					t.Fatalf("accepted chunk %d, held %d before and %d after", idx, held, len(a.chunks))
				case err != nil && open && idx == held && idx < MaxChunks:
					t.Fatalf("refused chunk %d, the next one due: %v", idx, err)
				case err != nil && a.manifest == nil && len(a.chunks) != 0:
					t.Fatalf("refused chunk %d (%v) and still holds %d", idx, err, len(a.chunks))
				case err != nil && a.manifest != nil && len(a.chunks) != held:
					t.Fatalf("chunk %d after the manifest changed what is held", idx)
				}
			case opManifest:
				if m == nil {
					continue
				}
				var err error
				if grew := allocated(func() { err = a.SetManifest(m) }); grew > allocBound(len(manifest)) {
					t.Fatalf("installing a %d-byte manifest allocated %d", len(manifest), grew)
				}
				if err != nil {
					continue
				}
				if len(a.chunks) != m.Count() {
					t.Fatalf("manifest of %d accepted %d chunks", m.Count(), len(a.chunks))
				}
				for i, c := range a.chunks {
					if m.verifyChunk(i, c) != nil {
						t.Fatalf("manifest accepted chunk %d that it does not verify", i)
					}
				}
				if got := a.Bytes(); uint64(len(got)) != m.TotalBytes {
					t.Fatalf("accepted at %d bytes, manifest says %d", len(got), m.TotalBytes)
				}
			case opFill:
				if m == nil || a.manifest != nil || m.TotalBytes > 1<<20 || m.Count() > 1<<10 {
					continue
				}
				for i, c := range a.chunks[:min(len(a.chunks), m.Count())] {
					m.Checksums[i] = crc32.ChecksumIEEE(c)
				}
				for i := len(a.chunks); a.err == nil && i < m.Count(); i++ {
					size := uint64(m.ChunkBytes)
					if rem := m.TotalBytes % size; i == m.Count()-1 && rem != 0 {
						size = rem
					}
					payload := make([]byte, size)
					m.Checksums[i] = crc32.ChecksumIEEE(payload)
					if err := a.AddChunk(i, payload); err != nil {
						t.Fatalf("chunk %d, the next one due, refused: %v", i, err)
					}
				}
			}
		}
	})
}
