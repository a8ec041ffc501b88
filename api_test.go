package eternal_test

import (
	"errors"
	"testing"
	"time"

	"eternal"
	"eternal/internal/history"
)

func TestSystemConfigValidation(t *testing.T) {
	if _, err := eternal.NewSystem(eternal.SystemConfig{}); err == nil {
		t.Fatal("empty node list must be rejected")
	}
}

func TestCreateGroupValidation(t *testing.T) {
	sys := fastSystem(t, "n1", "n2")
	cases := []eternal.GroupSpec{
		{ // bad style
			Name: "g1", TypeName: "Register",
			Props: eternal.Properties{Style: eternal.ReplicationStyle(9), InitialReplicas: 1, MinReplicas: 1},
			Nodes: []string{"n1"},
		},
		{ // node count != InitialReplicas
			Name: "g2", TypeName: "Register",
			Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1},
			Nodes: []string{"n1"},
		},
		{ // passive without checkpoint interval
			Name: "g3", TypeName: "Register",
			Props: eternal.Properties{Style: eternal.WarmPassive, InitialReplicas: 2, MinReplicas: 1},
			Nodes: []string{"n1", "n2"},
		},
	}
	for i, spec := range cases {
		if err := sys.CreateGroup(spec); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestCreateGroupOnMissingNode(t *testing.T) {
	sys := fastSystem(t, "n1")
	err := sys.CreateGroup(eternal.GroupSpec{
		Name: "g", TypeName: "Register",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 1, MinReplicas: 1},
		Nodes: []string{"ghost"},
	})
	if err == nil {
		t.Fatal("expected error for missing placement node")
	}
}

func TestClientOnMissingNode(t *testing.T) {
	sys := fastSystem(t, "n1")
	if _, err := sys.Client("ghost", "x"); err == nil {
		t.Fatal("expected error")
	}
}

func TestRestartRunningNodeRejected(t *testing.T) {
	sys := fastSystem(t, "n1", "n2")
	if _, err := sys.RestartNode("n1"); err == nil {
		t.Fatal("expected error for restart of a running node")
	}
}

func TestUpgradeRequiresTwoReplicas(t *testing.T) {
	sys := fastSystem(t, "n1")
	err := sys.CreateGroup(eternal.GroupSpec{
		Name: "solo", TypeName: "Register",
		Props: eternal.Properties{Style: eternal.Active, InitialReplicas: 1, MinReplicas: 1},
		Nodes: []string{"n1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.UpgradeGroup("solo"); err == nil {
		t.Fatal("live upgrade of a singleton group must be rejected")
	}
	if err := sys.UpgradeGroup("ghost"); err == nil {
		t.Fatal("upgrade of unknown group must fail")
	}
}

func TestMarshalReexports(t *testing.T) {
	// The public marshaling surface round-trips like the internal one.
	e := eternal.NewEncoder(eternal.BigEndian)
	e.WriteString("public-api")
	e.WriteLongLong(-5)
	d := eternal.NewDecoder(e.Bytes(), eternal.BigEndian)
	if s, _ := d.ReadString(); s != "public-api" {
		t.Fatal("string round trip")
	}
	if v, _ := d.ReadLongLong(); v != -5 {
		t.Fatal("longlong round trip")
	}
	a := eternal.AnyFromDouble(2.5)
	if a.Value != 2.5 {
		t.Fatal("any constructor")
	}
	tc := eternal.StructOf("IDL:X:1.0", "X")
	if tc == nil || eternal.SequenceOf(tc) == nil {
		t.Fatal("typecode constructors")
	}
	if !eternal.AnyFromBoolean(true).Value.(bool) {
		t.Fatal("bool any")
	}
	if eternal.AnyFromLong(1).Value != int32(1) || eternal.AnyFromLongLong(1).Value != int64(1) {
		t.Fatal("int anys")
	}
}

func TestCheckpointableSentinels(t *testing.T) {
	if !errors.Is(eternal.ErrInvalidState, eternal.ErrInvalidState) {
		t.Fatal("sentinel identity")
	}
	r := &history.Register{}
	if err := r.SetState(eternal.AnyFromLong(3)); !errors.Is(err, eternal.ErrInvalidState) {
		t.Fatalf("err = %v", err)
	}
}

func TestInvokeUnknownOperation(t *testing.T) {
	sys := fastSystem(t, "n1")
	obj := registerGroup(t, sys, eternal.Properties{Style: eternal.Active, InitialReplicas: 1, MinReplicas: 1}, "n1", "n1")
	_, err := obj.Invoke("no-such-op", nil)
	se, ok := eternal.AsSystemException(err)
	if !ok || se.Name != "IDL:omg.org/CORBA/BAD_OPERATION:1.0" {
		t.Fatalf("err = %v", err)
	}
}

func TestUserExceptionThroughReplication(t *testing.T) {
	// Exceptions raised by replicas flow back through the total order and
	// duplicate suppression like normal replies.
	sys := fastSystem(t, "n1", "n2")
	obj := registerGroup(t, sys, eternal.Properties{Style: eternal.Active, InitialReplicas: 2, MinReplicas: 1}, "n2", "n1", "n2")
	// register.Invoke("set") with undecodable args returns an error that
	// maps to a system exception.
	_, err := obj.Invoke("set", []byte{0xFF})
	if err == nil {
		t.Fatal("expected an exception")
	}
}

func TestResolveUnknownGroupTimesOut(t *testing.T) {
	sys, err := eternal.NewSystem(eternal.SystemConfig{
		Nodes:          []string{"n1"},
		DefaultTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	cl, _ := sys.Client("n1", "x")
	defer cl.Close()
	if _, err := cl.Resolve("never-created"); err == nil {
		t.Fatal("expected timeout resolving unknown group")
	}
}
