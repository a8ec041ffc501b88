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

// ErrChunkMismatch reports a chunk out of index order, or one whose
// checksum or size disagrees with the transfer's manifest.
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
// — so it carries everything a receiver needs to validate the chunks that
// streamed ahead of it.
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

// DecodeManifest parses a serialized manifest, accepting exactly what Encode
// writes, and sanity-checks its internal consistency (the chunks, at their
// sizes, must add up to TotalBytes exactly — Assembly.Bytes allocates on its
// word).
func DecodeManifest(buf []byte) (*Manifest, error) {
	r := codec.NewReader(buf)
	m := &Manifest{TotalBytes: r.U64(), ChunkBytes: r.U32()}
	n := r.Count(4)
	if n > MaxChunks {
		r.Fail(errors.New("more than MaxChunks"))
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

// Assembly reassembles a chunked transfer on the receiving side. A donor's
// chunks reach every node in index order, ahead of their manifest (its bulk
// lane is FIFO and the total order drops nothing), so the assembly only
// appends: any index but the next one breaks it — the stream lost or
// reordered a chunk — and SetManifest then refuses it. SetManifest checks
// the chunk count, sizes and checksums once, at the manifest's position.
//
// Assembly is confined to the owning node's delivery goroutine.
type Assembly struct {
	chunks   [][]byte
	manifest *Manifest // set once the chunks verified
	err      error     // why the assembly broke; sticky
}

// NewAssembly creates an empty assembly.
func NewAssembly() *Assembly { return &Assembly{} }

// AddChunk appends chunk idx, which must be the next index. Any other index,
// or any chunk once the manifest is installed, is refused with an error;
// before the manifest the refusal also breaks the assembly, releasing what
// it held.
func (a *Assembly) AddChunk(idx int, payload []byte) error {
	switch {
	case a.manifest != nil:
		return fmt.Errorf("%w: chunk %d after the manifest", ErrChunkMismatch, idx)
	case a.err != nil:
		return a.err
	case idx != len(a.chunks) || idx >= MaxChunks:
		a.fail(fmt.Errorf("%w: chunk %d where %d was due", ErrChunkMismatch, idx, len(a.chunks)))
		return a.err
	}
	a.chunks = append(a.chunks, payload)
	return nil
}

func (a *Assembly) fail(err error) {
	a.chunks, a.err = nil, err
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

// SetManifest installs the transfer's manifest if the chunks held are
// exactly the ones it describes — their count, each one's size and
// checksum — and otherwise breaks the assembly. It reports why the
// assembly is broken, nil when Bytes may be called.
func (a *Assembly) SetManifest(m *Manifest) error {
	if a.err == nil && a.manifest == nil {
		if len(a.chunks) != m.Count() {
			a.fail(fmt.Errorf("%w: %d chunks of %d", ErrChunkMismatch, len(a.chunks), m.Count()))
		}
		for i, c := range a.chunks {
			if err := m.verifyChunk(i, c); err != nil {
				a.fail(err)
				break
			}
		}
		if a.err == nil {
			a.manifest = m
		}
	}
	return a.err
}

// Bytes concatenates the chunks into the encoded bundle. It must only be
// called once SetManifest has accepted them.
func (a *Assembly) Bytes() []byte {
	out := make([]byte, 0, a.manifest.TotalBytes)
	for _, c := range a.chunks {
		out = append(out, c...)
	}
	return out
}
