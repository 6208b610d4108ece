package design

import (
	"testing"

	"cmosopt/internal/device"
)

func TestUniform(t *testing.T) {
	a := Uniform(4, 1.2, 0.2, 3)
	if a.Vdd != 1.2 || len(a.Vts) != 4 || len(a.W) != 4 {
		t.Fatalf("bad assignment %+v", a)
	}
	for i := 0; i < 4; i++ {
		if a.Vts[i] != 0.2 || a.W[i] != 3 {
			t.Errorf("entry %d = (%v,%v)", i, a.Vts[i], a.W[i])
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Uniform(3, 1.0, 0.3, 2)
	b := a.Clone()
	b.Vdd = 2
	b.Vts[0] = 0.5
	b.W[1] = 9
	if a.Vdd != 1.0 || a.Vts[0] != 0.3 || a.W[1] != 2 {
		t.Error("Clone shares state with the original")
	}
}

func TestSetVts(t *testing.T) {
	a := Uniform(3, 1.0, 0.3, 2)
	a.SetVts(0.15)
	for i := range a.Vts {
		if a.Vts[i] != 0.15 {
			t.Fatalf("Vts[%d] = %v", i, a.Vts[i])
		}
	}
}

func TestValidate(t *testing.T) {
	tech := device.Default350()
	good := Uniform(2, 1.0, 0.3, 2)
	if err := good.Validate(&tech, 2); err != nil {
		t.Fatalf("good assignment rejected: %v", err)
	}
	cases := []struct {
		name string
		mod  func(*Assignment)
		n    int
	}{
		{"size mismatch", func(a *Assignment) {}, 3},
		{"vdd low", func(a *Assignment) { a.Vdd = 0.01 }, 2},
		{"vdd high", func(a *Assignment) { a.Vdd = 9 }, 2},
		{"vts low", func(a *Assignment) { a.Vts[1] = 0.001 }, 2},
		{"vts high", func(a *Assignment) { a.Vts[0] = 2 }, 2},
		{"w low", func(a *Assignment) { a.W[0] = 0.2 }, 2},
		{"w high", func(a *Assignment) { a.W[1] = 1e4 }, 2},
	}
	for _, tc := range cases {
		a := Uniform(2, 1.0, 0.3, 2)
		tc.mod(a)
		if err := a.Validate(&tech, tc.n); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestPerGateVddAccessors(t *testing.T) {
	a := Uniform(3, 1.2, 0.2, 2)
	if a.VddAt(0) != 1.2 {
		t.Error("uniform VddAt broken")
	}
	a.VddPer = []float64{1.2, 0.6, 0.6}
	if a.VddAt(1) != 0.6 || a.VddAt(0) != 1.2 {
		t.Error("per-gate VddAt broken")
	}
	b := a.Clone()
	b.VddPer[2] = 0.9
	if a.VddPer[2] != 0.6 {
		t.Error("Clone shares VddPer")
	}
}
