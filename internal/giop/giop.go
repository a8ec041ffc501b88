// Package giop implements CORBA's General Inter-ORB Protocol (GIOP) message
// formats and their TCP mapping, IIOP.
//
// The package covers GIOP versions 1.0, 1.1 and 1.2: the 12-byte message
// header, the seven message types, request and reply headers, service
// context lists, and message fragmentation/reassembly. It is the layer both
// the mini-ORB (internal/orb) and Eternal's socket-level interceptor
// (internal/interceptor) speak: the interceptor parses these messages off
// the byte stream exactly as the paper's Eternal parses IIOP off a
// Solaris socket.
package giop

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"eternal/internal/cdr"
)

// Version is a GIOP protocol version.
type Version struct {
	Major byte
	Minor byte
}

// Protocol versions supported by this implementation.
var (
	Version10 = Version{1, 0}
	Version11 = Version{1, 1}
	Version12 = Version{1, 2}
)

// String formats the version as "major.minor".
func (v Version) String() string { return fmt.Sprintf("%d.%d", v.Major, v.Minor) }

// AtLeast reports whether v is the same or a later version than w.
func (v Version) AtLeast(w Version) bool {
	return v.Major > w.Major || (v.Major == w.Major && v.Minor >= w.Minor)
}

// MsgType identifies a GIOP message type (the fourth header field).
type MsgType byte

// The GIOP message types.
const (
	MsgRequest         MsgType = 0
	MsgReply           MsgType = 1
	MsgCancelRequest   MsgType = 2
	MsgLocateRequest   MsgType = 3
	MsgLocateReply     MsgType = 4
	MsgCloseConnection MsgType = 5
	MsgMessageError    MsgType = 6
	MsgFragment        MsgType = 7
)

var msgTypeNames = [...]string{
	"Request", "Reply", "CancelRequest", "LocateRequest",
	"LocateReply", "CloseConnection", "MessageError", "Fragment",
}

// String returns the specification name of the message type.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", byte(t))
}

// HeaderLen is the fixed length of every GIOP message header.
const HeaderLen = 12

// MaxMessageSize bounds the body size this implementation will read,
// protecting the stream reader against corrupt or hostile length fields.
const MaxMessageSize = 64 << 20

// Errors reported by the message reader.
var (
	ErrBadMagic    = errors.New("giop: bad magic (not a GIOP message)")
	ErrBadVersion  = errors.New("giop: unsupported GIOP version")
	ErrTooLarge    = errors.New("giop: message exceeds MaxMessageSize")
	ErrUnexpected  = errors.New("giop: unexpected message type")
	ErrBadFragment = errors.New("giop: fragment without a fragmented message in progress")
)

var magic = [4]byte{'G', 'I', 'O', 'P'}

// Header flag bits (GIOP 1.1+; in 1.0 the byte holds only the order flag).
const (
	flagLittleEndian = 1 << 0
	flagMoreFrag     = 1 << 1
)

// Message is a single GIOP message: the parsed header plus the raw body.
//
// Body holds the bytes following the 12-byte header; for Request/Reply
// messages it contains the type-specific header followed by the aligned
// parameter data.
type Message struct {
	Version Version
	Order   cdr.ByteOrder
	Type    MsgType
	// MoreFragments is the GIOP 1.1+ "fragments follow" flag.
	MoreFragments bool
	Body          []byte
}

// Marshal produces the full wire form of the message (header + body).
func (m *Message) Marshal() []byte {
	return m.AppendMarshal(make([]byte, 0, HeaderLen+len(m.Body)))
}

// AppendMarshal appends the full wire form of the message to dst and
// returns the extended slice, letting callers reuse one buffer across
// messages instead of allocating per Marshal.
func (m *Message) AppendMarshal(dst []byte) []byte {
	return append(m.AppendHeader(dst, len(m.Body)), m.Body...)
}

// AppendHeader appends the 12-byte header AppendMarshal writes before a
// body of size bytes; m.Body is not read.
func (m *Message) AppendHeader(dst []byte, size int) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, m.Version.Major, m.Version.Minor)
	var flags byte
	if m.Order == cdr.LittleEndian {
		flags |= flagLittleEndian
	}
	if m.MoreFragments {
		flags |= flagMoreFrag
	}
	dst = append(dst, flags, byte(m.Type))
	n := uint32(size)
	if m.Order == cdr.LittleEndian {
		return append(dst, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
}

// wireBufPool recycles marshal buffers for WriteTo: the bytes are handed
// to w synchronously, so the buffer is free once Write returns.
var wireBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledWireBuf bounds the capacity retained in wireBufPool so a single
// huge message does not pin its buffer forever.
const maxPooledWireBuf = 256 << 10

// WriteTo writes the full wire form to w in one Write call, using a pooled
// buffer.
func (m *Message) WriteTo(w io.Writer) (int64, error) {
	bp := wireBufPool.Get().(*[]byte)
	buf := m.AppendMarshal((*bp)[:0])
	n, err := w.Write(buf)
	if cap(buf) <= maxPooledWireBuf {
		*bp = buf[:0]
		wireBufPool.Put(bp)
	}
	return int64(n), err
}

// ReadMessage reads exactly one GIOP message from r.
//
// It validates the magic, version, flags and size, and returns io.EOF
// unchanged if the stream ends cleanly on a message boundary.
func ReadMessage(r io.Reader) (*Message, error) { return readMessage(r, MaxMessageSize) }

// ParseMessage parses one whole GIOP message held in b, such as the
// payload of an ordered envelope: ReadMessage's checks, and no bytes
// before or after the message. The message's Body aliases b.
func ParseMessage(b []byte) (*Message, error) {
	if len(b) < HeaderLen {
		return nil, fmt.Errorf("giop: %d bytes hold no header", len(b))
	}
	m, size, err := parseHeader((*[HeaderLen]byte)(b), MaxMessageSize)
	if err != nil {
		return nil, err
	}
	if len(b)-HeaderLen != size {
		return nil, fmt.Errorf("giop: %d bytes after a header that declares a %d-byte body", len(b)-HeaderLen, size)
	}
	m.Body = b[HeaderLen:]
	nMessagesRead.Add(1)
	return m, nil
}

// readMessage reads one message whose body may be at most limit bytes.
func readMessage(r io.Reader, limit int) (*Message, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("giop: reading header: %w", err)
	}
	m, size, err := parseHeader(&hdr, limit)
	if err != nil {
		return nil, err
	}
	if m.Body, err = readBody(r, size); err != nil {
		return nil, fmt.Errorf("giop: reading %d-byte body: %w", size, err)
	}
	nMessagesRead.Add(1)
	return m, nil
}

// parseHeader checks a message header's magic, version and flags, and
// that the body it declares is at most limit bytes. It returns the
// message without its body, and the body's size.
func parseHeader(hdr *[HeaderLen]byte, limit int) (*Message, int, error) {
	if [4]byte(hdr[0:4]) != magic {
		return nil, 0, ErrBadMagic
	}
	ver := Version{hdr[4], hdr[5]}
	if ver.Major != 1 || ver.Minor > 2 {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadVersion, ver)
	}
	flags := hdr[6]
	if flags&^(flagLittleEndian|flagMoreFrag) != 0 {
		return nil, 0, fmt.Errorf("giop: reserved header flags %#x", flags)
	}
	order := cdr.BigEndian
	if flags&flagLittleEndian != 0 {
		order = cdr.LittleEndian
	}
	size, err := cdr.NewDecoder(hdr[8:12], order).ReadULong()
	if err != nil {
		return nil, 0, err
	}
	if uint64(size) > uint64(limit) {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, size)
	}
	return &Message{
		Version:       ver,
		Order:         order,
		Type:          MsgType(hdr[7]),
		MoreFragments: flags&flagMoreFrag != 0,
	}, int(size), nil
}

// exactBody is the largest body read into one allocation of the size its
// header declares. A header can declare up to MaxMessageSize before a byte
// of body has arrived, so a larger body is allocated only as its bytes
// arrive: from firstStep, doubling with what has been read.
const (
	exactBody = 64 << 10
	firstStep = 16 << 10
)

func readBody(r io.Reader, size int) ([]byte, error) {
	if size <= exactBody {
		body := make([]byte, size)
		_, err := io.ReadFull(r, body)
		return body, err
	}
	body := make([]byte, 0, firstStep)
	for len(body) < size {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(len(body), size-len(body)))
		}
		n, err := io.ReadFull(r, body[len(body):min(cap(body), size)])
		body = body[:len(body)+n]
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}

// Reader reads whole (reassembled) GIOP messages from a byte stream.
//
// GIOP 1.1 fragments arrive as a head message with the MoreFragments flag
// set, followed by Fragment messages on the same connection; this reader
// reassembles them transparently. (GIOP 1.2 interleaving by request id is
// not needed by our single-threaded-per-connection ORB and is rejected.)
type Reader struct {
	r io.Reader
	// pending is the in-progress fragmented message, nil when none.
	pending *Message
}

// NewReader returns a Reader wrapping r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next returns the next complete GIOP message, reassembling fragments.
func (g *Reader) Next() (*Message, error) {
	for {
		// A reassembled message, too, is at most MaxMessageSize.
		limit := MaxMessageSize
		if g.pending != nil {
			limit -= len(g.pending.Body)
		}
		m, err := readMessage(g.r, limit)
		if err != nil {
			return nil, err
		}
		switch {
		case m.Type == MsgFragment:
			if g.pending == nil {
				return nil, ErrBadFragment
			}
			// Fragments are 1.1-style pure continuations: this
			// implementation never interleaves fragmented messages on one
			// connection, so no per-fragment request id is carried even on
			// 1.2 streams (see FragmentMessage).
			g.pending.Body = append(g.pending.Body, m.Body...)
			if !m.MoreFragments {
				done := g.pending
				done.MoreFragments = false
				g.pending = nil
				nReassembled.Add(1)
				return done, nil
			}
		case m.MoreFragments:
			if g.pending != nil {
				return nil, ErrBadFragment
			}
			g.pending = m
		default:
			return m, nil
		}
	}
}

// WriteMessage writes a message to w, splitting it into GIOP fragments
// when its body exceeds maxBody (0 disables fragmentation). The peer's
// Reader reassembles transparently.
func WriteMessage(w io.Writer, m *Message, maxBody int) error {
	if maxBody <= 0 || len(m.Body) <= maxBody {
		_, err := m.WriteTo(w)
		return err
	}
	for _, frag := range FragmentMessage(m, maxBody) {
		if _, err := frag.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// FragmentMessage splits a message into a head message plus Fragment
// messages none of which exceeds maxBody body bytes. It returns the
// sequence of wire messages in transmission order. Messages that already
// fit are returned unchanged as a single element.
//
// Only GIOP 1.1+ messages may be fragmented; 1.0 messages are returned
// whole regardless of size.
func FragmentMessage(m *Message, maxBody int) []*Message {
	if maxBody <= 0 || len(m.Body) <= maxBody || !m.Version.AtLeast(Version11) {
		return []*Message{m}
	}
	var out []*Message
	head := *m
	head.Body = m.Body[:maxBody]
	head.MoreFragments = true
	out = append(out, &head)
	rest := m.Body[maxBody:]
	for len(rest) > 0 {
		n := min(len(rest), maxBody)
		frag := &Message{
			Version:       m.Version,
			Order:         m.Order,
			Type:          MsgFragment,
			MoreFragments: len(rest) > n,
			Body:          rest[:n],
		}
		out = append(out, frag)
		rest = rest[n:]
	}
	return out
}
