package sim

import "testing"

func TestTimeUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatal("unit mismatch")
	}
	if got := (2 * Millisecond).Seconds(); got != 0.002 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := (3 * Nanosecond).Nanoseconds(); got != 3 {
		t.Fatalf("Nanoseconds = %v", got)
	}
}
