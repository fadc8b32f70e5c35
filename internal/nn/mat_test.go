package nn

import (
	"math/rand"
	"testing"
)

func TestNewMatShape(t *testing.T) {
	m := NewMat(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %+v", m)
	}
}

func TestNewMatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMat(0, 1) should panic")
		}
	}()
	NewMat(0, 1)
}

func TestMatAtSetRow(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %g, want 7", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Errorf("Row view wrong: %v", row)
	}
	row[0] = 5 // views alias
	if m.At(1, 0) != 5 {
		t.Error("Row should be a view, not a copy")
	}
}

func TestAddColInto(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(0, 1, 10)
	m.Set(1, 1, 20)
	out := []float64{1, 2}
	m.AddColInto(out, 1)
	if out[0] != 11 || out[1] != 22 {
		t.Errorf("AddColInto = %v, want [11 22]", out)
	}
}

func TestAddColIntoMatchesOneHotMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := RandMat(rng, 5, 4, 1)
	for j := 0; j < 4; j++ {
		got := make([]float64, 5)
		m.AddColInto(got, j)
		for i := range got {
			// m · onehot(j) is column j: row i contributes m[i][j]·1 and zeros.
			if want := m.At(i, j); got[i] != want {
				t.Fatalf("col %d row %d: %g != %g", j, i, got[i], want)
			}
		}
	}
}

func TestZeroAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandMat(rng, 3, 3, 1)
	c := m.Clone()
	m.Zero()
	if m.At(1, 1) != 0 {
		t.Error("Zero did not clear")
	}
	allZero := true
	for _, v := range c.Data {
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Error("Clone aliased original storage")
	}
}

func TestRandMatScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := RandMat(rng, 10, 10, 0.5)
	for _, v := range m.Data {
		if v < -0.5 || v > 0.5 {
			t.Fatalf("entry %g outside [-0.5, 0.5]", v)
		}
	}
}
