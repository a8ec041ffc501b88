package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"eternal/internal/codec"
)

// DefaultChunkBytes is the default bound on one state chunk's payload.
// ~32 KiB keeps a chunk to a couple dozen MTU fragments, small enough
// that foreground traffic interleaves between chunks on the token ring.
const DefaultChunkBytes = 32 * 1024

// MaxChunks bounds one transfer's chunk count, and so its chunk indexes
// (16M chunks ≈ 512 GiB at the default size): anything past it is garbage.
const MaxChunks = 1 << 24

// ErrBadManifest reports an undecodable or inconsistent manifest.
var ErrBadManifest = errors.New("recovery: bad manifest")

// ErrChunkMismatch reports a chunk whose checksum or size disagrees with
// the transfer's manifest.
var ErrChunkMismatch = errors.New("recovery: chunk mismatch")

// SplitChunks slices an encoded bundle into consecutive chunks of at most
// chunkBytes each (the last chunk may be shorter). chunkBytes <= 0 selects
// DefaultChunkBytes. The returned sub-slices alias enc; they are not
// copies.
func SplitChunks(enc []byte, chunkBytes int) [][]byte {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	if len(enc) == 0 {
		return nil
	}
	chunks := make([][]byte, 0, (len(enc)+chunkBytes-1)/chunkBytes)
	for off := 0; off < len(enc); off += chunkBytes {
		end := off + chunkBytes
		if end > len(enc) {
			end = len(enc)
		}
		chunks = append(chunks, enc[off:end])
	}
	return chunks
}

// Manifest describes one chunked state transfer: how the encoded bundle
// was split and a CRC-32 (IEEE) checksum per chunk. Its delivery position
// in the total order is the transfer's sync point — the paper's set_state
// — so it carries everything a receiver needs
// to validate the chunks that streamed ahead of it.
type Manifest struct {
	// TotalBytes is the length of the encoded bundle.
	TotalBytes uint64
	// ChunkBytes is the split size; every chunk except the last is exactly
	// this long.
	ChunkBytes uint32
	// Checksums holds crc32.ChecksumIEEE of each chunk, in order. Its
	// length is the chunk count.
	Checksums []uint32
}

// NewManifest builds the manifest describing chunks as produced by
// SplitChunks(enc, chunkBytes).
func NewManifest(enc []byte, chunks [][]byte, chunkBytes int) *Manifest {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	m := &Manifest{
		TotalBytes: uint64(len(enc)),
		ChunkBytes: uint32(chunkBytes),
		Checksums:  make([]uint32, len(chunks)),
	}
	for i, c := range chunks {
		m.Checksums[i] = crc32.ChecksumIEEE(c)
	}
	return m
}

// Count reports the number of chunks in the transfer.
func (m *Manifest) Count() int { return len(m.Checksums) }

// Encode serializes the manifest: TotalBytes, ChunkBytes and the chunk count
// as uvarints, then each checksum as four big-endian bytes.
func (m *Manifest) Encode() []byte {
	b := make([]byte, 0, 3*binary.MaxVarintLen64+4*len(m.Checksums))
	b = binary.AppendUvarint(binary.AppendUvarint(b, m.TotalBytes), uint64(m.ChunkBytes))
	b = binary.AppendUvarint(b, uint64(len(m.Checksums)))
	for _, c := range m.Checksums {
		b = binary.BigEndian.AppendUint32(b, c)
	}
	return b
}

var errTooManyChunks = errors.New("more than MaxChunks")

// DecodeManifest parses a serialized manifest, accepting exactly what Encode
// writes, and sanity-checks its internal consistency (the chunks, at their
// sizes, must add up to TotalBytes exactly — Assembly.Bytes allocates on its
// word).
func DecodeManifest(buf []byte) (*Manifest, error) {
	r := codec.NewReader(buf)
	m := &Manifest{TotalBytes: r.U64(), ChunkBytes: r.U32()}
	n := r.Count(4)
	if n > MaxChunks {
		r.Fail(errTooManyChunks)
	}
	if r.Err() == nil {
		m.Checksums = make([]uint32, n)
	}
	for i := range m.Checksums {
		m.Checksums[i] = binary.BigEndian.Uint32(r.Take(4)) // Count(4) vouched for the bytes
	}
	switch total, size := m.TotalBytes, uint64(m.ChunkBytes); {
	case total != 0 && size == 0:
		r.Fail(errors.New("zero chunk size for a non-empty transfer"))
	case total == 0 && n != 0,
		// not (total+size-1)/size: that wraps
		total != 0 && total/size+min(total%size, 1) != uint64(n):
		r.Fail(errors.New("chunk count does not fit the bytes at the chunk size"))
	}
	if err := r.Done(ErrBadManifest); err != nil {
		return nil, err
	}
	return m, nil
}

// Assembly reassembles a chunked transfer on the receiving side. Chunks
// may arrive before the manifest (the normal streaming order): they are
// held unverified until SetManifest checks them. Chunks arriving after
// the manifest (retransmissions) are verified immediately.
//
// Assembly is confined to the owning node's delivery goroutine.
type Assembly struct {
	// chunks is keyed by index so memory tracks the chunks held, not the
	// largest index seen: before the manifest the index comes straight off
	// the wire with nothing to check it against.
	chunks   map[int][]byte
	manifest *Manifest
}

// NewAssembly creates an empty assembly.
func NewAssembly() *Assembly { return &Assembly{chunks: make(map[int][]byte)} }

// AddChunk stores one chunk by index. Before the manifest is known any
// index below MaxChunks is accepted provisionally. After the manifest,
// out-of-range indexes and checksum/size mismatches are rejected with an
// error and the stored state is unchanged.
func (a *Assembly) AddChunk(idx int, payload []byte) error {
	if idx < 0 || idx >= MaxChunks {
		return fmt.Errorf("%w: index %d out of range", ErrChunkMismatch, idx)
	}
	if a.manifest != nil {
		if idx >= a.manifest.Count() {
			return fmt.Errorf("%w: index %d of %d", ErrChunkMismatch, idx, a.manifest.Count())
		}
		if err := a.manifest.verifyChunk(idx, payload); err != nil {
			return err
		}
	}
	a.chunks[idx] = payload
	return nil
}

// verifyChunk checks one chunk's size and checksum against the manifest.
func (m *Manifest) verifyChunk(idx int, payload []byte) error {
	want := uint64(m.ChunkBytes)
	if idx == m.Count()-1 { // last chunk carries the remainder
		if rem := m.TotalBytes % uint64(m.ChunkBytes); rem != 0 {
			want = rem
		}
	}
	if uint64(len(payload)) != want {
		return fmt.Errorf("%w: chunk %d is %d bytes, want %d",
			ErrChunkMismatch, idx, len(payload), want)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != m.Checksums[idx] {
		return fmt.Errorf("%w: chunk %d checksum %08x, want %08x",
			ErrChunkMismatch, idx, sum, m.Checksums[idx])
	}
	return nil
}

// SetManifest installs the transfer's manifest, verifies every chunk held
// so far, and drops any that fail (they become missing, to be
// retransmitted). It returns the indexes still missing, and the count of
// held chunks it dropped: past the manifest's count, or checksum/size
// mismatch.
func (a *Assembly) SetManifest(m *Manifest) (missing []uint32, dropped int) {
	a.manifest = m
	for i, c := range a.chunks {
		if i >= m.Count() || m.verifyChunk(i, c) != nil {
			delete(a.chunks, i)
			dropped++
		}
	}
	return a.Missing(), dropped
}

// Missing lists the chunk indexes not yet held, in order. It is only
// meaningful after SetManifest.
func (a *Assembly) Missing() []uint32 {
	if a.manifest == nil {
		return nil
	}
	var missing []uint32
	for i := 0; i < a.manifest.Count(); i++ {
		if _, held := a.chunks[i]; !held {
			missing = append(missing, uint32(i))
		}
	}
	return missing
}

// Complete reports whether the manifest is known and every chunk is held.
func (a *Assembly) Complete() bool {
	return a.manifest != nil && len(a.Missing()) == 0
}

// Bytes concatenates the chunks into the encoded bundle. It must only be
// called when Complete() is true.
func (a *Assembly) Bytes() []byte {
	out := make([]byte, 0, a.manifest.TotalBytes)
	for i := 0; i < a.manifest.Count(); i++ {
		out = append(out, a.chunks[i]...)
	}
	return out
}

// EncodeIndexList serializes a retransmit request's chunk-index list: a
// count, then each index as a uvarint.
func EncodeIndexList(idx []uint32) []byte {
	b := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(idx)*3), uint64(len(idx)))
	for _, i := range idx {
		b = binary.AppendUvarint(b, uint64(i))
	}
	return b
}

// DecodeIndexList parses a retransmit request's chunk-index list, accepting
// exactly what EncodeIndexList writes.
func DecodeIndexList(buf []byte) ([]uint32, error) {
	r := codec.NewReader(buf)
	n := r.Count(1)
	if n > MaxChunks {
		r.Fail(errTooManyChunks)
	}
	var idx []uint32
	if r.Err() == nil {
		idx = make([]uint32, n)
	}
	for i := range idx {
		idx[i] = r.U32()
	}
	if err := r.Done(ErrBadManifest); err != nil {
		return nil, err
	}
	return idx, nil
}
