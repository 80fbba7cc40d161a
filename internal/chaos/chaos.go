// Package chaos is the deterministic fault-injection layer: it wraps
// io.Reader / file access and injects the failure modes real corpus
// consumption sees — bit-flips from partial downloads, truncated
// streams, transient I/O errors on networked filesystems, and read
// latency — all reproducible from a single seed. The benchmark-dataset
// literature (GHTraffic, the worm-infection dataset work) argues that a
// synthetic corpus is only trustworthy once its consumer has been
// validated against deliberately degraded inputs; this package is how
// offnetscope degrades them on purpose.
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
	"errors"
	"fmt"
	"io"
	"os"
	"time"

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
	// TruncateProb is the probability that the stream silently ends
	// early, at a random offset within the first TruncateWindow bytes —
	// the shape of a partial download.
	TruncateProb float64
	// TruncateWindow bounds the truncation offset. Zero means 1 MiB.
	TruncateWindow int64
	// ErrProb is the per-Read probability of returning a transient
	// error instead of data. The read is not consumed: a retry sees the
	// same stream position, so retrying callers make progress.
	ErrProb float64
	// MaxLatency, when nonzero, sleeps a uniform duration in
	// [0, MaxLatency) before each Read.
	MaxLatency time.Duration
}

// TransientError is the retryable fault the injector returns with
// probability Config.ErrProb. It implements Temporary() so generic
// classifiers (net.Error-style checks, internal/resilience's default
// policy) treat it as retryable.
type TransientError struct {
	Offset int64
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("chaos: transient I/O error at offset %d", e.Offset)
}

// Temporary reports that the fault clears on retry.
func (e *TransientError) Temporary() bool { return true }

// IsTransient reports whether err is an injected transient fault.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// Reader injects faults into an underlying io.Reader.
type Reader struct {
	r          io.Reader
	cfg        Config
	g          *rng.RNG
	off        int64 // bytes delivered so far
	truncateAt int64 // -1: never truncate
}

// NewReader wraps r with the configured fault injector. label names the
// stream (conventionally the file path) so distinct streams under one
// seed draw independent faults.
func NewReader(r io.Reader, cfg Config, label string) *Reader {
	g := rng.New(cfg.Seed).Fork("chaos:" + label)
	cr := &Reader{r: r, cfg: cfg, g: g, truncateAt: -1}
	if cfg.TruncateProb > 0 && g.Bool(cfg.TruncateProb) {
		window := cfg.TruncateWindow
		if window <= 0 {
			window = 1 << 20
		}
		cr.truncateAt = g.Int63n(window)
	}
	return cr
}

// Read implements io.Reader with fault injection.
func (c *Reader) Read(p []byte) (int, error) {
	if c.cfg.MaxLatency > 0 {
		time.Sleep(time.Duration(c.g.Int63n(int64(c.cfg.MaxLatency))))
	}
	if c.cfg.ErrProb > 0 && c.g.Bool(c.cfg.ErrProb) {
		return 0, &TransientError{Offset: c.off}
	}
	if c.truncateAt >= 0 {
		if c.off >= c.truncateAt {
			return 0, io.EOF
		}
		if remain := c.truncateAt - c.off; int64(len(p)) > remain {
			p = p[:remain]
		}
	}
	n, err := c.r.Read(p)
	if c.cfg.BitFlipRate > 0 {
		for i := 0; i < n; i++ {
			if c.g.Bool(c.cfg.BitFlipRate) {
				p[i] ^= 1 << c.g.Intn(8)
			}
		}
	}
	c.off += int64(n)
	return n, err
}

// Open opens path with the fault injector layered over the file,
// labelled by the path itself. Closing the returned ReadCloser closes
// the file.
func Open(path string, cfg Config) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &readCloser{Reader: NewReader(f, cfg, path), c: f}, nil
}

type readCloser struct {
	*Reader
	c io.Closer
}

func (rc *readCloser) Close() error { return rc.c.Close() }

// Corrupt runs data through a fault injector and returns whatever
// survives: bits flipped per BitFlipRate, the tail dropped when the
// truncation coin lands. Transient errors are retried internally so the
// result depends only on (cfg, label, data) — the convenience form used
// to corrupt fixture bytes in tests.
func Corrupt(data []byte, cfg Config, label string) []byte {
	r := NewReader(bytes.NewReader(data), cfg, label)
	out := make([]byte, 0, len(data))
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			if IsTransient(err) {
				continue
			}
			return out
		}
	}
}
