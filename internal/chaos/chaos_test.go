package chaos

import (
	"bytes"
	"io"
	"testing"
)

func payload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return data
}

// A zero config must be a transparent pass-through.
func TestZeroConfigPassesThrough(t *testing.T) {
	data := payload(64 << 10)
	got, err := io.ReadAll(NewReader(bytes.NewReader(data), Config{}, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("zero-config reader altered the stream")
	}
}

// The fault stream is a pure function of (seed, label): same pair, same
// corruption; different pair, different corruption.
func TestDeterminism(t *testing.T) {
	data := payload(32 << 10)
	cfg := Config{Seed: 7, BitFlipRate: 0.01}
	a := Corrupt(data, cfg, "x")
	b := Corrupt(data, cfg, "x")
	if !bytes.Equal(a, b) {
		t.Fatal("identical (seed, label) produced different corruption")
	}
	c := Corrupt(data, cfg, "y")
	if bytes.Equal(a, c) {
		t.Fatal("different labels produced identical corruption")
	}
	cfg.Seed = 8
	d := Corrupt(data, cfg, "x")
	if bytes.Equal(a, d) {
		t.Fatal("different seeds produced identical corruption")
	}
}

func TestBitFlips(t *testing.T) {
	data := payload(64 << 10)
	got := Corrupt(data, Config{Seed: 3, BitFlipRate: 0.01}, "f")
	if len(got) != len(data) {
		t.Fatalf("length changed: %d vs %d", len(got), len(data))
	}
	flipped := 0
	for i := range data {
		if got[i] != data[i] {
			flipped++
			// Exactly one bit per hit byte.
			if x := got[i] ^ data[i]; x&(x-1) != 0 {
				t.Fatalf("byte %d had multiple bits flipped: %08b", i, x)
			}
		}
	}
	// ~655 expected at 1%; allow a wide deterministic band.
	if flipped < 300 || flipped > 1200 {
		t.Fatalf("flipped %d/%d bytes at rate 0.01", flipped, len(data))
	}
}
