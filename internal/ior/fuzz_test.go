package ior

import (
	"reflect"
	"runtime"
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

// FuzzParseIOR feeds the reference decoders what a client may be handed:
// the same bytes as a stringified reference (ParseString) and as a CDR
// reference (Unmarshal), then every profile of what they accept through
// ParseProfile and every component of those through ParseFTGroup. None
// may panic or allocate more than a small multiple of the input (64 KiB +
// 16× the input), and every value accepted must re-encode to one that
// decodes to itself.
func FuzzParseIOR(f *testing.F) {
	group := &FTGroupInfo{FTDomainID: "eternal-domain", GroupID: 0xDEADBEEF01, GroupVersion: 7}
	for _, r := range []*IOR{
		NewObjectReference("IDL:Bank/Account:1.0", "host.example", 9999, []byte("key-bytes")),
		NewObjectReference("", "", 0, nil),
		NewIOGR("IDL:Bank/Account:1.0", group, []Member{
			{Host: "n1", Port: 1001, ObjectKey: []byte("k1"), Primary: true},
			{Host: "n2", Port: 1002, ObjectKey: []byte("k2")},
		}),
		{TypeID: "IDL:Old:1.0", Profiles: []TaggedProfile{
			MarshalProfile(&IIOPProfile{Major: 1, Minor: 0, Host: "h", Port: 1, ObjectKey: []byte("k")}),
			{Tag: TagMultipleComponents, Data: []byte{0, 0, 0, 0}},
		}},
	} {
		f.Add([]byte(r.String()))
		f.Add(r.Marshal())
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		var fromString, fromCDR *IOR
		if grew := allocated(func() {
			fromString, _ = ParseString(string(buf))
			fromCDR, _ = Unmarshal(buf)
		}); grew > allocBound(len(buf)) {
			t.Fatalf("decoding %d bytes allocated %d", len(buf), grew)
		}
		for _, r := range []*IOR{fromString, fromCDR} {
			if r == nil {
				continue
			}
			if again, err := ParseString(r.String()); err != nil || !reflect.DeepEqual(again, r) {
				t.Fatalf("reference %+v stringifies to one that decodes to %+v (%v)", r, again, err)
			}
			if again, err := Unmarshal(r.Marshal()); err != nil || !reflect.DeepEqual(again, r) {
				t.Fatalf("reference %+v marshals to one that decodes to %+v (%v)", r, again, err)
			}
			for _, tp := range r.Profiles {
				checkProfile(t, TaggedProfile{Tag: TagInternetIOP, Data: tp.Data})
			}
		}
	})
}

// checkProfile decodes one profile body under the fuzz invariant, then
// each of its components as an FT group.
func checkProfile(t *testing.T, tp TaggedProfile) {
	var p *IIOPProfile
	var err error
	if grew := allocated(func() { p, err = ParseProfile(tp) }); grew > allocBound(len(tp.Data)) {
		t.Fatalf("parsing a %d-byte profile allocated %d", len(tp.Data), grew)
	}
	if err != nil {
		return
	}
	if again, err := ParseProfile(MarshalProfile(p)); err != nil || !reflect.DeepEqual(again, p) {
		t.Fatalf("profile %+v re-encodes to one that parses to %+v (%v)", p, again, err)
	}
	for _, c := range p.Components {
		c.Tag = TagFTGroup
		var g *FTGroupInfo
		if grew := allocated(func() { g, err = ParseFTGroup(c) }); grew > allocBound(len(c.Data)) {
			t.Fatalf("parsing a %d-byte component allocated %d", len(c.Data), grew)
		}
		if err != nil {
			continue
		}
		if again, err := ParseFTGroup(MarshalFTGroup(g)); err != nil || *again != *g {
			t.Fatalf("group %+v re-encodes to one that parses to %+v (%v)", g, again, err)
		}
	}
}
