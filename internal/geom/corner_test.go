package geom

import (
	"testing"
)

func TestCornerBits(t *testing.T) {
	c := Corner(0b101)
	if !c.Bit(0) || c.Bit(1) || !c.Bit(2) {
		t.Fatalf("unexpected bits for %b", c)
	}
}

func TestCornerOpposite(t *testing.T) {
	if got := Corner(0b01).Opposite(2); got != 0b10 {
		t.Errorf("Opposite = %b, want 10", got)
	}
	if got := Corner(0b000).Opposite(3); got != 0b111 {
		t.Errorf("Opposite = %b, want 111", got)
	}
	// Opposite is an involution.
	for d := 1; d <= 4; d++ {
		Corners(d, func(b Corner) {
			if b.Opposite(d).Opposite(d) != b {
				t.Fatalf("Opposite not involutive for %v dims=%d", b, d)
			}
		})
	}
}

func TestCornerCountAndAll(t *testing.T) {
	if CornerCount(2) != 4 || CornerCount(3) != 8 {
		t.Error("CornerCount wrong")
	}
	var visited []Corner
	Corners(2, func(b Corner) { visited = append(visited, b) })
	if len(visited) != 4 || visited[0] != 0 || visited[3] != 3 {
		t.Errorf("Corners visited %v", visited)
	}
}

func TestCornerStringParse(t *testing.T) {
	c := Corner(0b10) // dim 1 maximised
	s := c.StringDims(2)
	if s != "01" {
		t.Fatalf("StringDims = %q, want \"01\"", s)
	}
	if c.StringDims(0) != "" {
		t.Error("zero dimensions should render empty")
	}
}
