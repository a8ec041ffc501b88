package history

import (
	"strings"
	"testing"
)

func TestCheck(t *testing.T) {
	ack := func(c, v string) Op { return Op{Client: c, Value: v, Acked: true} }
	unknown := func(c, v string) Op { return Op{Client: c, Value: v} }
	for _, tc := range []struct {
		name string
		ops  []Op
		hist []string
		want string // a fragment of the error; empty means Check passes
	}{
		{"all acked in order", []Op{ack("a", "a1"), ack("b", "b1"), ack("a", "a2")}, []string{"b1", "a1", "a2"}, ""},
		{"acked missing", []Op{ack("a", "a1"), ack("a", "a2")}, []string{"a1"}, `acked write "a2" of a is missing`},
		{"value twice", []Op{ack("a", "a1")}, []string{"a1", "a1"}, `"a1" appears twice`},
		{"never issued", []Op{ack("a", "a1")}, []string{"a1", "x"}, `"x" (position 1), which no attempt wrote`},
		{"acked out of order", []Op{ack("a", "a1"), ack("a", "a2")}, []string{"a2", "a1"}, `"a1" (position 1), which it had acked`},
		{"unknown before an earlier ack", []Op{ack("a", "a1"), unknown("a", "a2")}, []string{"a2", "a1"}, `write "a2" (position 0) precedes "a1"`},
		{"one value, two attempts", []Op{unknown("a", "a1"), ack("a", "a1")}, []string{"a1"}, "issued by two attempts"},
		{"unknown absent", []Op{unknown("a", "a1.1"), ack("a", "a1.2")}, []string{"a1.2"}, ""},
		{"unknown present once", []Op{unknown("a", "a1.1"), ack("a", "a1.2")}, []string{"a1.1", "a1.2"}, ""},
		{"unknown after a later ack", []Op{unknown("a", "a1.1"), ack("a", "a1.2"), ack("a", "a2.1")}, []string{"a1.2", "a1.1", "a2.1"}, ""},
		{"other clients interleave", []Op{ack("a", "a1"), ack("a", "a2"), ack("b", "b1")}, []string{"a1", "b1", "a2"}, ""},
		{"empty", nil, nil, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := Check(tc.ops, tc.hist)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Check failed: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Check = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
