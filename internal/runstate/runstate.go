// Package runstate persists longitudinal-run progress so a crashed or
// killed growth run resumes instead of restarting. A checkpoint
// directory holds a manifest binding the run to its inputs (corpus
// fingerprint, pipeline-options hash, vendor, format version) plus one
// crash-safe entry per completed snapshot. Every file is replaced with
// durable.WriteAtomic and entries are framed by durable.Seal (magic,
// version, CRC-32 trailer), so a SIGKILL mid-write leaves at worst a
// stale temp file, never a half-trusted checkpoint; corrupt or partial
// entries are discarded on load and simply recomputed.
package runstate

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"offnetscope/internal/core"
	"offnetscope/internal/durable"
	"offnetscope/internal/obs"
	"offnetscope/internal/timeline"
)

// Format is the checkpoint wire-format version; bumping it invalidates
// every existing checkpoint directory.
const Format = 1

const manifestName = "manifest.json"

// ErrManifestMismatch wraps every resume rejection so callers can tell
// "stale checkpoints" from I/O failure.
var ErrManifestMismatch = errors.New("runstate: checkpoint manifest does not match this run")

// Manifest pins a checkpoint directory to one exact run configuration.
// Any field differing between the directory and the resuming run means
// the checkpoints describe a different study and must not be mixed in.
type Manifest struct {
	Format  int    `json:"format"`
	Corpus  string `json:"corpus_fingerprint"`
	Options string `json:"options_hash"`
	Vendor  string `json:"vendor"`
}

func (m Manifest) diff(other Manifest) string {
	var parts []string
	if m.Format != other.Format {
		parts = append(parts, fmt.Sprintf("format %d vs %d", other.Format, m.Format))
	}
	if m.Corpus != other.Corpus {
		parts = append(parts, "corpus contents changed")
	}
	if m.Options != other.Options {
		parts = append(parts, "pipeline options changed")
	}
	if m.Vendor != other.Vendor {
		parts = append(parts, fmt.Sprintf("vendor %q vs %q", other.Vendor, m.Vendor))
	}
	return strings.Join(parts, "; ")
}

// Dir is an open checkpoint directory.
type Dir struct {
	path     string
	manifest Manifest
	metrics  *obs.Registry
}

// Path returns the directory the checkpoints live in.
func (d *Dir) Path() string { return d.path }

// SetMetrics routes checkpoint accounting (runstate.* in DESIGN.md §7)
// into reg: save/load counts, corrupt-entry discards, and save/load
// latency histograms. A nil registry (the default) disables it.
func (d *Dir) SetMetrics(reg *obs.Registry) { d.metrics = reg }

// Create opens a fresh checkpoint directory for the given run,
// discarding any entries (and temp-file litter) a previous run left
// behind. The directory is created if missing.
func Create(path string, m Manifest) (*Dir, error) {
	m.Format = Format
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if name == manifestName || strings.HasSuffix(name, entrySuffix) || strings.HasPrefix(name, durable.TempPrefix) {
			if err := os.Remove(filepath.Join(path, name)); err != nil {
				return nil, fmt.Errorf("runstate: clearing stale checkpoint: %w", err)
			}
		}
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	if err := durable.WriteFile(filepath.Join(path, manifestName), append(raw, '\n')); err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	return &Dir{path: path, manifest: m}, nil
}

// Resume opens an existing checkpoint directory, validating that its
// manifest matches the resuming run exactly. A directory with no
// manifest (or no directory at all) starts fresh via Create — there is
// simply nothing to resume. A mismatched manifest is an error: mixing
// checkpoints across different corpuses or options would silently
// corrupt the study.
func Resume(path string, m Manifest) (*Dir, error) {
	m.Format = Format
	raw, err := os.ReadFile(filepath.Join(path, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return Create(path, m)
	}
	if err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	var have Manifest
	if err := json.Unmarshal(raw, &have); err != nil {
		return nil, fmt.Errorf("runstate: unreadable manifest in %s: %w (delete the directory to start over)", path, err)
	}
	if have != m {
		return nil, fmt.Errorf("%w: %s (directory %s; delete it or pick another -checkpoint to start over)",
			ErrManifestMismatch, m.diff(have), path)
	}
	return &Dir{path: path, manifest: m}, nil
}

func (d *Dir) entryPath(s timeline.Snapshot) string {
	return filepath.Join(d.path, "snap-"+s.Label()+entrySuffix)
}

// Save persists one completed snapshot atomically with
// durable.WriteAtomic. After Save returns, a crash at any later point
// leaves the entry loadable.
func (d *Dir) Save(s timeline.Snapshot, ck *core.CheckpointData) error {
	start := time.Now()
	defer d.metrics.Histogram("runstate.save_ns").Since(start)
	raw, err := encodeEntry(s, ck)
	if err != nil {
		d.metrics.Counter("runstate.save_errors").Inc()
		return err
	}
	if err := durable.WriteFile(d.entryPath(s), raw); err != nil {
		d.metrics.Counter("runstate.save_errors").Inc()
		return fmt.Errorf("runstate: %w", err)
	}
	d.metrics.Counter("runstate.saves").Inc()
	return nil
}

// Load returns the checkpoint for snapshot s, or nil when the entry is
// missing, truncated, or corrupt — a damaged checkpoint is removed and
// the snapshot recomputed, never trusted.
func (d *Dir) Load(s timeline.Snapshot) *core.CheckpointData {
	start := time.Now()
	defer d.metrics.Histogram("runstate.load_ns").Since(start)
	d.metrics.Counter("runstate.loads").Inc()
	path := d.entryPath(s)
	raw, err := os.ReadFile(path)
	if err != nil {
		d.metrics.Counter("runstate.load_misses").Inc()
		return nil
	}
	ck, err := decodeEntry(s, raw)
	if err != nil {
		d.metrics.Counter("runstate.load_corrupt").Inc()
		os.Remove(path)
		return nil
	}
	d.metrics.Counter("runstate.load_hits").Inc()
	return ck
}

// CorpusFingerprint hashes the contents of every regular file under dir
// (names, sizes, and a CRC of the bytes, in sorted path order) into a
// stable hex digest. Any change to the corpus — a regenerated world, an
// added vendor-month, even silent bit rot — changes the fingerprint and
// invalidates old checkpoints.
func CorpusFingerprint(dir string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, ent fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !ent.Type().IsRegular() {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		crc := crc32.NewIEEE()
		n, err := io.Copy(crc, f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00%08x\n", filepath.ToSlash(rel), n, crc.Sum32())
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("runstate: fingerprinting %s: %w", dir, err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// OptionsHash digests the pipeline options that affect inference
// output. The worker count is deliberately excluded: it changes how the
// run executes, never what it computes.
// The fixed "nginx=false expiry=[]" keeps the digest of checkpoints
// written when Options had two more fields, which no command could
// set, so those checkpoints still resume.
func OptionsHash(opts core.Options) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("mode=%d chain=%t dns=%t cf=%t conflict=%t nginx=false expiry=[]",
		opts.HeaderMode, opts.DisableChainValidation, opts.DisableDNSNameFilter,
		opts.DisableCloudflareFilter, opts.DisableConflictPriority)))
	return fmt.Sprintf("%x", h[:])
}
