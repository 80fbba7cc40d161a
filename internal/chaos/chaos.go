// Package chaos is the deterministic fault-injection layer: it wraps an
// io.Reader and flips bits the way partial downloads and encoding bugs
// damage corpus bytes, reproducibly from a single seed. The
// benchmark-dataset literature (GHTraffic, the worm-infection dataset
// work) argues that a synthetic corpus is only trustworthy once its
// consumer has been validated against deliberately degraded inputs;
// this package is how offnetscope degrades them on purpose. HTTP-layer
// faults live in http.go.
//
// Every injector derives its randomness from (Config.Seed, label) via
// rng.Fork, so two readers over different files draw independent fault
// streams yet the whole experiment replays exactly from one seed.
//
// The package also holds the one crash harness (kill.go) the
// kill-anytime suites share: Harness re-executes the test binary as a
// child and signals it when its durable progress, read from disk,
// reaches a plan point, and CompareDirs checks a recovered directory
// byte for byte against a never-killed one.
package chaos

import (
	"bytes"
	"io"

	"offnetscope/internal/rng"
)

// Config tunes which faults are injected and how often. The zero value
// injects nothing: a zero-config Reader is a transparent pass-through.
type Config struct {
	// Seed roots the deterministic fault stream. Identical
	// (Seed, label) pairs inject identical faults.
	Seed uint64
	// BitFlipRate is the per-byte probability that one random bit of
	// the byte is flipped.
	BitFlipRate float64
}

// Reader injects faults into an underlying io.Reader.
type Reader struct {
	r   io.Reader
	cfg Config
	g   *rng.RNG
}

// NewReader wraps r with the configured fault injector. label names the
// stream (conventionally the file path) so distinct streams under one
// seed draw independent faults.
func NewReader(r io.Reader, cfg Config, label string) *Reader {
	return &Reader{r: r, cfg: cfg, g: rng.New(cfg.Seed).Fork("chaos:" + label)}
}

// Read implements io.Reader with fault injection.
func (c *Reader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.cfg.BitFlipRate > 0 {
		for i := 0; i < n; i++ {
			if c.g.Bool(c.cfg.BitFlipRate) {
				p[i] ^= 1 << c.g.Intn(8)
			}
		}
	}
	return n, err
}

// Corrupt runs data through a fault injector and returns the result:
// bits flipped per BitFlipRate. It depends only on (cfg, label, data) —
// the convenience form used to corrupt fixture bytes in tests.
func Corrupt(data []byte, cfg Config, label string) []byte {
	out, _ := io.ReadAll(NewReader(bytes.NewReader(data), cfg, label)) // a bytes.Reader never fails
	return out
}
