package giop

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"eternal/internal/cdr"
)

func TestMessageRoundTrip(t *testing.T) {
	for _, v := range []Version{Version10, Version11, Version12} {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			m := &Message{Version: v, Order: order, Type: MsgRequest, Body: []byte{1, 2, 3, 4, 5}}
			var buf bytes.Buffer
			if _, err := m.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadMessage(&buf)
			if err != nil {
				t.Fatalf("v%v %v: %v", v, order, err)
			}
			if got.Version != v || got.Order != order || got.Type != MsgRequest {
				t.Errorf("header mismatch: %+v", got)
			}
			if !bytes.Equal(got.Body, m.Body) {
				t.Errorf("body = % x", got.Body)
			}
		}
	}
}

func TestBadMagic(t *testing.T) {
	raw := []byte("NOPE" + string(make([]byte, 8)))
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadVersion(t *testing.T) {
	m := &Message{Version: Version{2, 0}, Type: MsgRequest}
	if _, err := ReadMessage(bytes.NewReader(m.Marshal())); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestTooLarge(t *testing.T) {
	raw := (&Message{Version: Version12, Type: MsgRequest}).Marshal()
	// Patch the size field to something absurd.
	raw[8], raw[9], raw[10], raw[11] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// A header can declare MaxMessageSize before a byte of its body arrives:
// the reader believes it only as far as bytes arrive, while a body of at
// most exactBody is still read into one allocation of its size.
func TestReadMessageAllocatesAsBytesArrive(t *testing.T) {
	hdr := (&Message{Version: Version12, Type: MsgRequest}).Marshal()
	binary.BigEndian.PutUint32(hdr[8:], MaxMessageSize)
	var err error
	if grew := allocated(func() { _, err = ReadMessage(bytes.NewReader(hdr)) }); err == nil || grew >= 64<<10 {
		t.Fatalf("a bare header declaring %d bytes: allocated %d, err %v", MaxMessageSize, grew, err)
	}
	for _, size := range []int{exactBody, exactBody + 1, 1 << 20} {
		body := bytes.Repeat([]byte{7}, size)
		raw := (&Message{Version: Version12, Type: MsgReply, Body: body}).Marshal()
		var m *Message
		grew := allocated(func() { m, err = ReadMessage(bytes.NewReader(raw)) })
		if err != nil || !bytes.Equal(m.Body, body) {
			t.Fatalf("%d-byte body: %v", size, err)
		}
		if size == exactBody && grew > exactBody+1<<10 {
			t.Errorf("%d-byte body allocated %d: more than the body once", size, grew)
		}
		if grew > 4*uint64(size) {
			t.Errorf("%d-byte body allocated %d", size, grew)
		}
	}
}

// A reassembled message is bound by MaxMessageSize as a single one is: a
// fragment that would carry it past the bound is refused at its header.
func TestReassemblyCapped(t *testing.T) {
	head := (&Message{Version: Version12, Type: MsgRequest, MoreFragments: true, Body: []byte{1}}).Marshal()
	frag := (&Message{Version: Version12, Type: MsgFragment}).Marshal()
	binary.BigEndian.PutUint32(frag[8:], MaxMessageSize)
	if _, err := NewReader(bytes.NewReader(append(head, frag...))).Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestCleanEOF(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestTruncatedBody(t *testing.T) {
	m := &Message{Version: Version12, Type: MsgRequest, Body: []byte{1, 2, 3, 4}}
	raw := m.Marshal()
	if _, err := ReadMessage(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Fatal("expected error on truncated body")
	}
}

func requestHeader() *RequestHeader {
	return &RequestHeader{
		ServiceContexts: []ServiceContext{
			{ID: SCCodeSets, Data: []byte{0, 1, 2, 3}},
			{ID: SCVendorHandshake, Data: []byte("hello")},
		},
		RequestID:        350,
		ResponseExpected: true,
		ObjectKey:        []byte("POA/bank/account-17"),
		Operation:        "deposit",
		Principal:        []byte("tester"),
	}
}

func TestRequestRoundTripAllVersions(t *testing.T) {
	args := []byte{9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, v := range []Version{Version10, Version11, Version12} {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			h := requestHeader()
			m := EncodeRequest(v, order, h, args)
			req, err := ParseRequest(m)
			if err != nil {
				t.Fatalf("v%v: %v", v, err)
			}
			if req.Header.RequestID != 350 {
				t.Errorf("v%v: request id = %d", v, req.Header.RequestID)
			}
			if id, twoWay, err := PeekRequest(m); err != nil || id != 350 || !twoWay {
				t.Errorf("v%v: PeekRequest = %d, %t, %v", v, id, twoWay, err)
			}
			if !req.Header.ResponseExpected {
				t.Errorf("v%v: response expected lost", v)
			}
			if string(req.Header.ObjectKey) != "POA/bank/account-17" {
				t.Errorf("v%v: object key = %q", v, req.Header.ObjectKey)
			}
			if req.Header.Operation != "deposit" {
				t.Errorf("v%v: operation = %q", v, req.Header.Operation)
			}
			if len(req.Header.ServiceContexts) != 2 {
				t.Fatalf("v%v: %d service contexts", v, len(req.Header.ServiceContexts))
			}
			if sc := FindContext(req.Header.ServiceContexts, SCVendorHandshake); sc == nil || string(sc.Data) != "hello" {
				t.Errorf("v%v: handshake context lost: %+v", v, sc)
			}
			if !bytes.Equal(req.Args, args) {
				t.Errorf("v%v: args = % x, want % x", v, req.Args, args)
			}
		}
	}
}

func TestOnewayRequest(t *testing.T) {
	h := &RequestHeader{RequestID: 1, ResponseExpected: false, ObjectKey: []byte("k"), Operation: "notify"}
	for _, v := range []Version{Version10, Version12} {
		m := EncodeRequest(v, cdr.BigEndian, h, nil)
		req, err := ParseRequest(m)
		if err != nil {
			t.Fatal(err)
		}
		if req.Header.ResponseExpected {
			t.Errorf("v%v: oneway parsed as two-way", v)
		}
	}
}

func TestEmptyArgsNoAlignmentPadding(t *testing.T) {
	h := &RequestHeader{RequestID: 5, ObjectKey: []byte("k"), Operation: "ping"}
	m := EncodeRequest(Version12, cdr.BigEndian, h, nil)
	req, err := ParseRequest(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Args) != 0 {
		t.Fatalf("args = % x, want empty", req.Args)
	}
}

func TestReplyRoundTripAllVersions(t *testing.T) {
	result := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	for _, v := range []Version{Version10, Version11, Version12} {
		h := &ReplyHeader{
			ServiceContexts: []ServiceContext{{ID: SCFTGroupVersion, Data: []byte{1}}},
			RequestID:       350,
			Status:          ReplyNoException,
		}
		m := EncodeReply(v, cdr.LittleEndian, h, result)
		rep, err := ParseReply(m)
		if err != nil {
			t.Fatalf("v%v: %v", v, err)
		}
		if rep.Header.RequestID != 350 || rep.Header.Status != ReplyNoException {
			t.Errorf("v%v: header = %+v", v, rep.Header)
		}
		if id, err := PeekReply(m); err != nil || id != 350 {
			t.Errorf("v%v: PeekReply = %d, %v", v, id, err)
		}
		if !bytes.Equal(rep.Result, result) {
			t.Errorf("v%v: result = % x", v, rep.Result)
		}
	}
}

func TestReplyStatusValues(t *testing.T) {
	for _, st := range []ReplyStatus{ReplyNoException, ReplyUserException, ReplySystemException, ReplyLocationForward} {
		m := EncodeReply(Version12, cdr.BigEndian, &ReplyHeader{RequestID: 1, Status: st}, nil)
		rep, err := ParseReply(m)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Header.Status != st {
			t.Errorf("status = %v, want %v", rep.Header.Status, st)
		}
	}
}

func TestParseWrongType(t *testing.T) {
	m := EncodeReply(Version12, cdr.BigEndian, &ReplyHeader{}, nil)
	if _, err := ParseRequest(m); !errors.Is(err, ErrUnexpected) {
		t.Fatalf("err = %v, want ErrUnexpected", err)
	}
	m2 := EncodeRequest(Version12, cdr.BigEndian, &RequestHeader{}, nil)
	if _, err := ParseReply(m2); !errors.Is(err, ErrUnexpected) {
		t.Fatalf("err = %v, want ErrUnexpected", err)
	}
	if _, err := PeekReply(m2); !errors.Is(err, ErrUnexpected) {
		t.Fatalf("err = %v, want ErrUnexpected", err)
	}
	if _, _, err := PeekRequest(m); !errors.Is(err, ErrUnexpected) {
		t.Fatalf("err = %v, want ErrUnexpected", err)
	}
}

func TestCancelRequestRoundTrip(t *testing.T) {
	m := EncodeCancelRequest(Version11, cdr.BigEndian, 42)
	h, err := ParseCancelRequest(m)
	if err != nil || h.RequestID != 42 {
		t.Fatalf("got %+v, %v", h, err)
	}
}

func TestLocateRoundTrip(t *testing.T) {
	for _, v := range []Version{Version10, Version12} {
		m := EncodeLocateRequest(v, cdr.BigEndian, &LocateRequestHeader{RequestID: 9, ObjectKey: []byte("obj")})
		h, err := ParseLocateRequest(m)
		if err != nil {
			t.Fatalf("v%v: %v", v, err)
		}
		if h.RequestID != 9 || string(h.ObjectKey) != "obj" {
			t.Errorf("v%v: %+v", v, h)
		}
		r := EncodeLocateReply(v, cdr.BigEndian, &LocateReplyHeader{RequestID: 9, Status: LocateObjectHere})
		rh, err := ParseLocateReply(r)
		if err != nil || rh.Status != LocateObjectHere {
			t.Errorf("v%v: locate reply %+v, %v", v, rh, err)
		}
	}
}

func TestFragmentationRoundTrip(t *testing.T) {
	body := make([]byte, 10_000)
	for i := range body {
		body[i] = byte(i)
	}
	h := &RequestHeader{RequestID: 7, ResponseExpected: true, ObjectKey: []byte("k"), Operation: "bulk"}
	whole := EncodeRequest(Version12, cdr.BigEndian, h, body)
	frags := FragmentMessage(whole, 1500)
	if len(frags) < 2 {
		t.Fatalf("expected multiple fragments, got %d", len(frags))
	}
	if !frags[0].MoreFragments {
		t.Error("head fragment must set MoreFragments")
	}
	if frags[len(frags)-1].MoreFragments {
		t.Error("last fragment must clear MoreFragments")
	}
	var stream bytes.Buffer
	for _, f := range frags {
		if _, err := f.WriteTo(&stream); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&stream)
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, whole.Body) {
		t.Fatalf("reassembled body mismatch: %d vs %d bytes", len(got.Body), len(whole.Body))
	}
	req, err := ParseRequest(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(req.Args, body) {
		t.Error("args corrupted by fragmentation")
	}
}

func TestFragmentSmallMessageUnchanged(t *testing.T) {
	m := EncodeRequest(Version12, cdr.BigEndian, &RequestHeader{RequestID: 1, ObjectKey: []byte("k"), Operation: "op"}, nil)
	frags := FragmentMessage(m, 1500)
	if len(frags) != 1 || frags[0] != m {
		t.Fatalf("small message should pass through, got %d", len(frags))
	}
}

func TestFragmentGIOP10NotFragmented(t *testing.T) {
	m := EncodeRequest(Version10, cdr.BigEndian, &RequestHeader{RequestID: 1, ObjectKey: []byte("k"), Operation: "op"}, make([]byte, 5000))
	frags := FragmentMessage(m, 1500)
	if len(frags) != 1 {
		t.Fatalf("GIOP 1.0 must not fragment, got %d messages", len(frags))
	}
}

func TestStrayFragmentRejected(t *testing.T) {
	frag := &Message{Version: Version11, Type: MsgFragment, Body: []byte{1}}
	var buf bytes.Buffer
	frag.WriteTo(&buf)
	r := NewReader(&buf)
	if _, err := r.Next(); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("err = %v, want ErrBadFragment", err)
	}
}

func TestReaderInterleavesNonFragmented(t *testing.T) {
	var buf bytes.Buffer
	for i := uint32(0); i < 5; i++ {
		m := EncodeRequest(Version12, cdr.BigEndian, &RequestHeader{RequestID: i, ObjectKey: []byte("k"), Operation: "op"}, nil)
		m.WriteTo(&buf)
	}
	r := NewReader(&buf)
	for i := uint32(0); i < 5; i++ {
		m, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		req, err := ParseRequest(m)
		if err != nil {
			t.Fatal(err)
		}
		if req.Header.RequestID != i {
			t.Fatalf("out of order: got %d want %d", req.Header.RequestID, i)
		}
	}
}

// Property: request headers round-trip for arbitrary field values.
func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(id uint32, op string, key []byte, args []byte, twoWay, le bool, minor uint8) bool {
		order := cdr.BigEndian
		if le {
			order = cdr.LittleEndian
		}
		v := Version{1, minor % 3}
		h := &RequestHeader{RequestID: id, ResponseExpected: twoWay, ObjectKey: key, Operation: op}
		req, err := ParseRequest(EncodeRequest(v, order, h, args))
		if err != nil {
			return false
		}
		if req.Header.RequestID != id || req.Header.Operation != op || req.Header.ResponseExpected != twoWay {
			return false
		}
		if !bytes.Equal(req.Header.ObjectKey, key) {
			return false
		}
		// GIOP 1.2 pads empty->aligned bodies; compare content prefix.
		return bytes.Equal(req.Args, args)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReadMessage never panics and never accepts corrupt magic.
func TestQuickReadMessageRobust(t *testing.T) {
	f := func(raw []byte) bool {
		m, err := ReadMessage(bytes.NewReader(raw))
		if err != nil {
			return true
		}
		return m != nil && len(raw) >= HeaderLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgRequest.String() != "Request" || MsgFragment.String() != "Fragment" {
		t.Error("bad MsgType names")
	}
	if ReplyNoException.String() != "NO_EXCEPTION" {
		t.Error("bad ReplyStatus name")
	}
}
