package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	tests := []struct {
		name    string
		xs      []float64
		want    float64
		wantErr bool
	}{
		{"two values", []float64{2, 8}, 4, false},
		{"single value", []float64{3.5}, 3.5, false},
		{"empty", nil, 0, false},
		{"identity", []float64{1, 1, 1}, 1, false},
		// The degenerate cases that used to crash the whole harness: a
		// zero-GC workload yields a zero speedup cell.
		{"zero value", []float64{1, 0}, 0, true},
		{"negative value", []float64{2, -3}, 0, true},
		{"NaN", []float64{2, math.NaN()}, 0, true},
	}
	for _, tc := range tests {
		g, err := Geomean(tc.xs)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: expected error, got %v", tc.name, g)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if math.Abs(g-tc.want) > 1e-12 {
			t.Errorf("%s: geomean = %v, want %v", tc.name, g, tc.want)
		}
	}
}

func TestMustGeomean(t *testing.T) {
	if g := MustGeomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %v, want 4", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGeomean of zero should panic")
		}
	}()
	MustGeomean([]float64{1, 0})
}

func TestGeomeanBetweenMinMaxProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		g, err := Geomean(xs)
		if err != nil {
			return false
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMax(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 || Mean(nil) != 0 {
		t.Fatal("mean")
	}
	if Max([]float64{3, 9, 1}) != 9 || Max(nil) != 0 {
		t.Fatal("max")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "workload", "DDR4", "Charon")
	tb.AddFloats("BS", 2, 1.0, 3.29)
	tb.AddRow("KM", "1.00", "2.50")
	out := tb.String()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "3.29") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns aligned: header and row share the column start offsets.
	if strings.Index(lines[1], "DDR4") != strings.Index(lines[3], "1.00") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}
