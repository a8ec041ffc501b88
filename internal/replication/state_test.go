package replication

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"eternal/internal/codec"
	"eternal/internal/ftcorba"
)

// The filter state, the group spec and the group table reach a node off
// the ring: inside a donor's bundle or a passive primary's checkpoint, in a
// KCreateGroup, in a KSyncState. Each decoder takes exactly what its encoder
// writes.

func sampleFilterState() map[ConnID]uint32 {
	return map[ConnID]uint32{
		{Client: "c1", Group: "bank"}:                           7,
		{Client: "c2", Group: "bank"}:                           9,
		{Client: "c2", Group: "bank", Seq: 3}:                   1,
		{Client: "", Group: "", Seq: math.MaxUint64}:            math.MaxUint32,
		{Client: "teller", Group: "ledger", Seq: 1 << 40}:       0,
		{Client: string(make([]byte, 200)), Group: "b", Seq: 2}: 300,
	}
}

func sampleSpecs() []*GroupSpec {
	return []*GroupSpec{
		spec(),
		{Name: "x", Props: ftcorba.Properties{Style: ftcorba.Active, InitialReplicas: 1, MinReplicas: 1}},
		{Props: ftcorba.Properties{Style: ftcorba.ReplicationStyle(-1), InitialReplicas: math.MinInt,
			CheckpointInterval: math.MaxInt64, FaultMonitoringInterval: -time.Second}},
	}
}

// sampleTable holds two groups, one of them with a recovering member whose
// add named the largest transfer id.
func sampleTable(t testing.TB) *Table {
	tb := NewTable()
	a := spec()
	a.Name = "group-a"
	b := spec()
	b.Name, b.Props.Style, b.Nodes = "group-b", ftcorba.Active, []string{"n1", "n2"}
	for _, s := range []*GroupSpec{a, b} {
		if _, err := tb.Create(s); err != nil {
			t.Fatal(err)
		}
	}
	tb.RemoveMember("group-b", "n2")
	if _, err := tb.AddRecovering("group-b", "n4", 1<<64-1); err != nil {
		t.Fatal(err)
	}
	return tb
}

// retiredTable encodes t in a layout KSyncState no longer carries: its
// members without the transfer id of their add, as kind 38 did before
// members named it and, with counters, each group followed by a
// transfer-id counter nothing read, as kind 33 did.
func retiredTable(t *Table, counters bool) []byte {
	names := t.Names()
	b := binary.AppendUvarint(nil, uint64(len(names)))
	for _, name := range names {
		g := t.groups[name]
		b = binary.AppendUvarint(appendSpec(b, &g.Spec), uint64(len(g.Members)))
		for _, m := range g.Members {
			b = binary.AppendUvarint(codec.AppendBytes(b, m.Node), uint64(m.State))
		}
		if counters {
			b = binary.AppendUvarint(b, math.MaxUint64)
		}
	}
	return b
}

// countTriggerTable encodes t in the layout whose specs carried a sixth
// property, the every-N checkpoint trigger (here everyN), between the
// checkpoint and monitoring intervals.
func countTriggerTable(t *Table, everyN uint64) []byte {
	names := t.Names()
	b := binary.AppendUvarint(nil, uint64(len(names)))
	for _, name := range names {
		g := t.groups[name]
		b = codec.AppendBytes(codec.AppendBytes(b, g.Spec.Name), g.Spec.TypeName)
		p := &g.Spec.Props
		for _, v := range []int64{int64(p.Style), int64(p.InitialReplicas), int64(p.MinReplicas),
			int64(p.CheckpointInterval), int64(everyN), int64(p.FaultMonitoringInterval)} {
			b = binary.AppendUvarint(b, uint64(v))
		}
		b = binary.AppendUvarint(codec.AppendStrings(b, g.Spec.Nodes), uint64(len(g.Members)))
		for _, m := range g.Members {
			b = binary.AppendUvarint(codec.AppendBytes(b, m.Node), uint64(m.State))
			b = binary.AppendUvarint(b, m.XferID)
		}
	}
	return b
}

// stateDecoder is one of the three decoders: decode parses buf and encodes
// what it got again; good are encodings of the samples above.
type stateDecoder struct {
	bad    error
	decode func(buf []byte) ([]byte, error)
	good   [][]byte
}

func stateDecoders(t testing.TB) map[string]stateDecoder {
	var specs [][]byte
	for _, s := range sampleSpecs() {
		specs = append(specs, EncodeSpec(s))
	}
	return map[string]stateDecoder{
		"filter state": {ErrBadFilterState, func(buf []byte) ([]byte, error) {
			s, err := DecodeFilterState(buf)
			return EncodeFilterState(s), err
		}, [][]byte{EncodeFilterState(sampleFilterState()), EncodeFilterState(nil)}},
		"spec": {ErrBadTable, func(buf []byte) ([]byte, error) {
			s, err := DecodeSpec(buf)
			if err != nil {
				return nil, err
			}
			return EncodeSpec(s), nil
		}, specs},
		"table": {ErrBadTable, func(buf []byte) ([]byte, error) {
			tb, err := DecodeTable(buf)
			if err != nil {
				return nil, err
			}
			return tb.EncodeTable(), nil
		}, [][]byte{sampleTable(t).EncodeTable(), NewTable().EncodeTable()}},
	}
}

// TestStateRoundTripIsByteExact: decoding and encoding again gives back the
// bytes the encoder wrote — one value, one spelling.
func TestStateRoundTripIsByteExact(t *testing.T) {
	for name, d := range stateDecoders(t) {
		for i, buf := range d.good {
			again, err := d.decode(buf)
			if err != nil {
				t.Fatalf("%s %d: %v", name, i, err)
			}
			if !bytes.Equal(again, buf) {
				t.Fatalf("%s %d: re-encodes to\n%x, not\n%x", name, i, again, buf)
			}
		}
	}
	if d, err := DecodeFilterState(EncodeFilterState(sampleFilterState())); err != nil || len(d) != len(sampleFilterState()) {
		t.Fatalf("filter state: %d entries, %v", len(d), err)
	}
}

// TestStateDecodersRejectTrailingBytes: a message with bytes after it is not
// that message.
func TestStateDecodersRejectTrailingBytes(t *testing.T) {
	for name, d := range stateDecoders(t) {
		for i, buf := range d.good {
			if _, err := d.decode(append(bytes.Clone(buf), 0)); !errors.Is(err, d.bad) {
				t.Errorf("%s %d with a trailing byte: err = %v, want %v", name, i, err, d.bad)
			}
		}
	}
}

// TestStateDecodersBoundAllocationByTheirInput: a count the bytes behind it
// cannot back is refused before anything is sized by it — four bytes that
// announce 2²⁰ connections cost no map of 2²⁰ (117 MB).
func TestStateDecodersBoundAllocationByTheirInput(t *testing.T) {
	uv := func(vs ...uint64) (b []byte) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	one := EncodeSpec(&GroupSpec{Name: "g"})
	hostile := map[string][][]byte{
		"filter state": {
			{0, 0x10, 0, 0}, // 2²⁰ connections, as the CDR layout said it
			uv(1 << 20), append(uv(1<<24), 1, 'c', 1, 'g'), uv(1 << 31),
		},
		"spec": {append(bytes.Clone(one[:len(one)-1]), uv(1<<30, 1)...)}, // 2³⁰ nodes
		"table": {
			uv(1 << 30),
			append(append(uv(1), one...), uv(1<<30, 1, 1)...), // a group of 2³⁰ members
		},
	}
	for name, d := range stateDecoders(t) {
		for i, buf := range hostile[name] {
			var err error
			if grew := allocated(func() { _, err = d.decode(buf) }); grew > allocBound(len(buf)) {
				t.Errorf("%s %d: decoding %d bytes allocated %d", name, i, len(buf), grew)
			}
			if !errors.Is(err, d.bad) {
				t.Errorf("%s %d: err = %v, want %v", name, i, err, d.bad)
			}
		}
	}
}

// TestDecodeTableRejectsWhatNoTableHolds: a group named twice (taken, the
// second would overwrite the first), a member state no node defines, and
// tables of the retired layouts: members without their add's transfer id,
// a transfer-id counter per group, alone or behind another group, and
// specs with an every-N checkpoint trigger, set or not.
func TestDecodeTableRejectsWhatNoTableHolds(t *testing.T) {
	twice := bytes.ReplaceAll(sampleTable(t).EncodeTable(), []byte("group-b"), []byte("group-a"))
	unknown := sampleTable(t)
	g, _ := unknown.Get("group-b")
	g.Members[0].State = 7
	one := sampleTable(t)
	delete(one.groups, "group-b")
	for name, buf := range map[string][]byte{
		"repeated group":                     twice,
		"unknown member state":               unknown.EncodeTable(),
		"members without transfer ids":       retiredTable(sampleTable(t), false),
		"one group without transfer ids":     retiredTable(one, false),
		"transfer counter":                   retiredTable(one, true),
		"transfer counters, a group between": retiredTable(sampleTable(t), true),
		"count trigger":                      countTriggerTable(one, 5),
		"count trigger unset":                countTriggerTable(one, 0),
		"count triggers, a group between":    countTriggerTable(sampleTable(t), 5),
		"count triggers unset, two groups":   countTriggerTable(sampleTable(t), 0),
	} {
		if _, err := DecodeTable(buf); !errors.Is(err, ErrBadTable) {
			t.Errorf("%s: err = %v, want ErrBadTable", name, err)
		}
	}
}

// TestDecodeFilterStateRejectsDisorder: EncodeFilterState lists connections
// in order, each once; a list that is not was not written by it.
func TestDecodeFilterStateRejectsDisorder(t *testing.T) {
	good := EncodeFilterState(map[ConnID]uint32{{Client: "c1", Group: "g"}: 1, {Client: "c2", Group: "g"}: 2})
	for name, buf := range map[string][]byte{
		"out of order": bytes.ReplaceAll(good, []byte("c2"), []byte("c0")),
		"repeated":     bytes.ReplaceAll(good, []byte("c2"), []byte("c1")),
	} {
		if _, err := DecodeFilterState(buf); !errors.Is(err, ErrBadFilterState) {
			t.Errorf("%s: err = %v, want ErrBadFilterState", name, err)
		}
	}
}
