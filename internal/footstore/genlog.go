// Generation log: the crash-only durability layer under the
// continuous-measurement daemon (cmd/offnetwatchd). Each committed scan
// wave becomes one immutable generation — a CRC-trailed segment file
// holding a full canonical store image — and a single manifest names
// the committed window. The manifest rename is the only commit point:
// a process SIGKILLed at any instant during an append or a compaction
// restarts serving exactly the generations the manifest named, never a
// torn one.
//
// On-disk layout (all files live directly in the log directory):
//
//	gen-00000042.seg        one generation (see segment format below)
//	MANIFEST.glm            the committed window (see manifest format)
//	gen-00000043.seg.torn   a quarantined uncommitted tail, kept for forensics
//	.tmp-*                  in-flight atomic writes, removed on open
//
// Both formats are framed by internal/durable: magic, uvarint version,
// body, and a CRC-32 IEEE little-endian trailer over every preceding
// byte.
//
// Segment format (version 1):
//
//	"offnetGS"      8-byte magic
//	version         uvarint, currently 1
//	generation      uvarint, must match the number in the filename
//	payload length  uvarint
//	payload         the canonical Store image (Encode), opaque here
//	crc32           4 bytes little-endian
//
// Manifest format (version 1):
//
//	"offnetGM"      8-byte magic
//	version         uvarint, currently 1
//	base            uvarint, first retained generation (≥ 1)
//	count           uvarint, number of retained generations
//	per generation base+i, in order:
//	  size          uvarint, exact byte size of the segment file
//	  crc32         4 bytes little-endian, over the whole segment file
//	crc32           4 bytes little-endian
//
// Write protocol. Append writes the segment, then commits by writing
// the manifest; both go through durable.WriteAtomic (temp file, fsync,
// rename, directory fsync). A crash mid-append leaves either a .tmp-
// file, which open sweeps, or a complete segment at generation ≥ next
// that the manifest does not name: an uncommitted tail, quarantined
// (renamed to .torn) on the next open — never trusted, never silently
// deleted. Compact raises base in the manifest FIRST, then unlinks the
// dropped segments; a crash in between leaves orphans below base,
// which open removes. Committed segments are immutable, so read-only
// observers (PeekGenLog + LoadGeneration) are safe to run concurrently
// with the writer without any locking across processes.
package footstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"offnetscope/internal/durable"
	"offnetscope/internal/obs"
)

const (
	// GenLogVersion is the current segment + manifest format version.
	GenLogVersion = 1

	manifestName = "MANIFEST.glm"
	tornSuffix   = ".torn"

	segMagic      = "offnetGS"
	manifestMagic = "offnetGM"
)

// segMeta is one manifest row: the exact size and whole-file checksum
// of a committed segment.
type segMeta struct {
	size uint64
	crc  uint32
}

// GenLog is the writer handle: a single process appends generations
// and compacts the tail. Methods are safe for concurrent use within
// the process; cross-process safety relies on there being exactly one
// writer (the daemon) while readers use PeekGenLog/LoadGeneration.
type GenLog struct {
	dir string

	mu   sync.Mutex
	base uint64 // first retained generation, ≥ 1
	segs []segMeta

	metrics *obs.Registry
}

// GenRecovery reports what OpenGenLog found and repaired.
type GenRecovery struct {
	Committed       int      // generations named by the manifest, all verified
	TornQuarantined []string // uncommitted segments past the committed tail, renamed *.torn
	OrphanedRemoved []string // segments below base (interrupted compaction), unlinked
	TempsRemoved    int      // .tmp-* files swept
}

func segName(gen uint64) string { return fmt.Sprintf("gen-%08d.seg", gen) }

// parseSegName extracts the generation number from a gen-NNNNNNNN.seg
// filename; ok is false for anything else (including .torn quarantines).
func parseSegName(name string) (uint64, bool) {
	const pre, suf = "gen-", ".seg"
	if !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, false
	}
	num := name[len(pre) : len(name)-len(suf)]
	if num == "" {
		return 0, false
	}
	gen, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// OpenGenLog opens (creating if needed) the generation log in dir,
// verifies every committed segment against the manifest, quarantines
// uncommitted tails, and removes compaction orphans and temp files. It is the
// writer-side open: it mutates the directory to a clean state. A
// corrupt manifest or a corrupt *committed* segment is not a crash
// artifact — both fail with a *CorruptError rather than being repaired,
// because committed data is supposed to be durable.
func OpenGenLog(dir string) (*GenLog, *GenRecovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("genlog: %w", err)
	}
	l := &GenLog{dir: dir, base: 1}
	rec := &GenRecovery{}

	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh log (or a crash before the very first commit): any
		// segments present are uncommitted by definition.
	case err != nil:
		return nil, nil, fmt.Errorf("genlog: %w", err)
	default:
		base, segs, derr := decodeManifest(raw)
		if derr != nil {
			return nil, nil, inFile(derr, filepath.Join(dir, manifestName))
		}
		l.base, l.segs = base, segs
	}

	// Verify every committed segment byte-for-byte against its manifest
	// row and its own internal framing.
	for i, meta := range l.segs {
		gen := l.base + uint64(i)
		path := filepath.Join(dir, segName(gen))
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, nil, &CorruptError{Path: path, Offset: 0, Reason: fmt.Sprintf("committed generation %d unreadable: %v", gen, rerr)}
		}
		if uint64(len(data)) != meta.size {
			return nil, nil, &CorruptError{Path: path, Offset: len(data), Reason: fmt.Sprintf("committed generation %d: size %d, manifest says %d", gen, len(data), meta.size)}
		}
		if got := crc32.ChecksumIEEE(data); got != meta.crc {
			return nil, nil, &CorruptError{Path: path, Offset: 0, Reason: fmt.Sprintf("committed generation %d: checksum mismatch against manifest", gen)}
		}
		if _, derr := decodeSegment(data, gen); derr != nil {
			return nil, nil, inFile(derr, path)
		}
	}
	rec.Committed = len(l.segs)

	// Sweep the directory: temp files go, segments past the committed
	// tail are quarantined, segments below base are compaction orphans.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("genlog: %w", err)
	}
	next := l.base + uint64(len(l.segs))
	dirty := false
	for _, e := range entries {
		if e.IsDir() {
			continue // a subdirectory is not the log's to sweep
		}
		name := e.Name()
		if strings.HasPrefix(name, durable.TempPrefix) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, nil, fmt.Errorf("genlog: %w", err)
			}
			rec.TempsRemoved++
			dirty = true
			continue
		}
		gen, ok := parseSegName(name)
		if !ok {
			continue // manifest, quarantines, foreign files
		}
		switch {
		case gen >= next:
			// Uncommitted tail: written but never named by the
			// manifest. Quarantine, don't trust, don't destroy.
			dst := filepath.Join(dir, name+tornSuffix)
			for n := 1; ; n++ {
				if _, serr := os.Lstat(dst); errors.Is(serr, fs.ErrNotExist) {
					break
				}
				dst = filepath.Join(dir, fmt.Sprintf("%s%s.%d", name, tornSuffix, n))
			}
			if err := os.Rename(filepath.Join(dir, name), dst); err != nil {
				return nil, nil, fmt.Errorf("genlog: %w", err)
			}
			rec.TornQuarantined = append(rec.TornQuarantined, filepath.Base(dst))
			dirty = true
		case gen < l.base:
			// Orphan from a compaction that committed its manifest but
			// died before unlinking.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, nil, fmt.Errorf("genlog: %w", err)
			}
			rec.OrphanedRemoved = append(rec.OrphanedRemoved, name)
			dirty = true
		}
	}
	sort.Strings(rec.TornQuarantined)
	sort.Strings(rec.OrphanedRemoved)
	if dirty {
		if err := durable.SyncDir(dir); err != nil {
			return nil, nil, fmt.Errorf("genlog: %w", err)
		}
	}

	// A fresh directory gets its empty manifest immediately, so a
	// concurrent PeekGenLog never has to special-case "no manifest yet"
	// beyond fs.ErrNotExist.
	if raw == nil {
		if err := l.writeManifestLocked(); err != nil {
			return nil, nil, err
		}
	}
	return l, rec, nil
}

// SetMetrics attaches an obs registry; nil (the default) discards.
func (l *GenLog) SetMetrics(reg *obs.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.metrics = reg
	reg.Gauge("genlog.generations").Set(int64(len(l.segs)))
}

// Dir returns the log directory.
func (l *GenLog) Dir() string { return l.dir }

// Base returns the first retained generation number.
func (l *GenLog) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Last returns the newest committed generation, or 0 if none.
func (l *GenLog) Last() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 {
		return 0
	}
	return l.base + uint64(len(l.segs)) - 1
}

// Len returns the number of retained generations.
func (l *GenLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Append commits st as the next generation and returns its number.
func (l *GenLog) Append(st *Store) (uint64, error) {
	return l.AppendEncoded(st.Encode())
}

// AppendEncoded commits an already-encoded payload as the next
// generation. The payload is opaque to the log (the crash-equivalence
// suite uses arbitrary deterministic bytes); callers that serve the log
// validate payloads on the read side (Load / LoadGeneration).
func (l *GenLog) AppendEncoded(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := time.Now()
	gen := l.base + uint64(len(l.segs))

	seg := encodeSegment(gen, payload)
	// Until the manifest names it, the segment is an uncommitted tail
	// that open quarantines.
	if err := durable.WriteFile(filepath.Join(l.dir, segName(gen)), seg); err != nil {
		return 0, fmt.Errorf("genlog: %w", err)
	}
	meta := segMeta{size: uint64(len(seg)), crc: crc32.ChecksumIEEE(seg)}

	l.segs = append(l.segs, meta)
	if err := l.writeManifestLocked(); err != nil {
		// The manifest on disk still names the old window; rewind the
		// in-memory view to match and leave the segment uncommitted.
		l.segs = l.segs[:len(l.segs)-1]
		return 0, err
	}

	l.metrics.Counter("genlog.appends").Inc()
	l.metrics.Counter("genlog.append_bytes").Add(int64(len(seg)))
	l.metrics.Histogram("genlog.append_ns").Since(start)
	l.metrics.Gauge("genlog.generations").Set(int64(len(l.segs)))
	return gen, nil
}

// Compact drops all but the newest keep generations. The manifest with
// the raised base commits first; only then are the dropped segments
// unlinked, so a kill mid-compaction leaves removable orphans, never a
// manifest pointing at missing data. Returns how many generations were
// dropped.
func (l *GenLog) Compact(keep int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if keep < 1 || len(l.segs) <= keep {
		return 0, nil
	}
	drop := len(l.segs) - keep
	oldBase := l.base
	l.base += uint64(drop)
	l.segs = append([]segMeta(nil), l.segs[drop:]...)
	if err := l.writeManifestLocked(); err != nil {
		l.base = oldBase
		return 0, err
	}
	for i := 0; i < drop; i++ {
		path := filepath.Join(l.dir, segName(oldBase+uint64(i)))
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return 0, fmt.Errorf("genlog: %w", err)
		}
	}
	if err := durable.SyncDir(l.dir); err != nil {
		return 0, fmt.Errorf("genlog: %w", err)
	}
	l.metrics.Counter("genlog.compactions").Inc()
	l.metrics.Counter("genlog.compacted_segments").Add(int64(drop))
	l.metrics.Gauge("genlog.generations").Set(int64(len(l.segs)))
	return drop, nil
}

// Load decodes the store image committed as generation gen.
func (l *GenLog) Load(gen uint64) (*Store, error) {
	payload, err := l.LoadEncoded(gen)
	if err != nil {
		return nil, err
	}
	st, err := Decode(payload)
	if err != nil {
		return nil, inFile(err, filepath.Join(l.dir, segName(gen)))
	}
	return st, nil
}

// LoadEncoded returns the raw payload committed as generation gen.
func (l *GenLog) LoadEncoded(gen uint64) ([]byte, error) {
	l.mu.Lock()
	base, count := l.base, uint64(len(l.segs))
	l.mu.Unlock()
	if gen < base || gen >= base+count {
		return nil, fmt.Errorf("genlog: generation %d not in committed window [%d, %d)", gen, base, base+count)
	}
	return readSegmentPayload(l.dir, gen)
}

// writeManifestLocked commits the current window; the caller holds mu.
func (l *GenLog) writeManifestLocked() error {
	if err := durable.WriteFile(filepath.Join(l.dir, manifestName), encodeManifest(l.base, l.segs)); err != nil {
		return fmt.Errorf("genlog: %w", err)
	}
	return nil
}

// PeekGenLog reads the committed window without touching anything:
// base is the first retained generation, next the one after the newest
// committed (base == next means the log is empty). Safe to call while
// a writer is appending — the manifest swaps atomically.
func PeekGenLog(dir string) (base, next uint64, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return 0, 0, fmt.Errorf("genlog: %w", err)
	}
	b, segs, derr := decodeManifest(raw)
	if derr != nil {
		return 0, 0, inFile(derr, filepath.Join(dir, manifestName))
	}
	return b, b + uint64(len(segs)), nil
}

// LoadGeneration reads one committed generation without a writer
// handle — the serving-side entry point (offnetserve's watcher feeds
// it through the validated reload path). The segment's framing and
// checksum are verified; the payload must be a valid store image.
func LoadGeneration(dir string, gen uint64) (*Store, error) {
	payload, err := readSegmentPayload(dir, gen)
	if err != nil {
		return nil, err
	}
	st, err := Decode(payload)
	if err != nil {
		return nil, inFile(err, filepath.Join(dir, segName(gen)))
	}
	return st, nil
}

// readSegmentPayload reads and fully verifies one segment file.
func readSegmentPayload(dir string, gen uint64) ([]byte, error) {
	path := filepath.Join(dir, segName(gen))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("genlog: %w", err)
	}
	payload, derr := decodeSegment(data, gen)
	if derr != nil {
		return nil, inFile(derr, path)
	}
	return payload, nil
}

// encodeSegment frames a payload as generation gen.
func encodeSegment(gen uint64, payload []byte) []byte {
	buf := durable.Start(segMagic, GenLogVersion)
	buf = binary.AppendUvarint(buf, gen)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return durable.Seal(append(buf, payload...))
}

// decodeSegment verifies the framing and returns the payload. wantGen
// must match the generation recorded in the header (a segment renamed
// to the wrong slot is corruption, not a crash artifact).
func decodeSegment(data []byte, wantGen uint64) ([]byte, error) {
	body, err := durable.Open(data, segMagic, GenLogVersion)
	if err != nil {
		return nil, fmt.Errorf("genlog: segment: %w", err)
	}
	d := newDecoder(data, body)
	gen := d.uvarint()
	if d.err == nil && gen != wantGen {
		d.fail(fmt.Sprintf("segment header names generation %d, expected %d", gen, wantGen))
	}
	plen := d.uvarint()
	if d.err == nil && plen != uint64(len(d.data)-d.off) {
		d.fail("segment payload length mismatch")
	}
	if d.err != nil {
		return nil, fmt.Errorf("genlog: %w", d.err)
	}
	return d.data[d.off:], nil
}

// encodeManifest serializes the committed window.
func encodeManifest(base uint64, segs []segMeta) []byte {
	buf := durable.Start(manifestMagic, GenLogVersion)
	buf = binary.AppendUvarint(buf, base)
	buf = binary.AppendUvarint(buf, uint64(len(segs)))
	for _, m := range segs {
		buf = binary.AppendUvarint(buf, m.size)
		buf = binary.LittleEndian.AppendUint32(buf, m.crc)
	}
	return durable.Seal(buf)
}

// minSegmentSize is the smallest legal segment file: magic + three
// one-byte varints + empty payload + trailer. Manifest rows claiming
// less are structurally corrupt.
const minSegmentSize = 8 + 3 + 4

// decodeManifest parses and validates a manifest. It never panics on
// malformed bytes (see FuzzGenerationManifest).
func decodeManifest(data []byte) (base uint64, segs []segMeta, err error) {
	body, err := durable.Open(data, manifestMagic, GenLogVersion)
	if err != nil {
		return 0, nil, fmt.Errorf("genlog: manifest: %w", err)
	}
	d := newDecoder(data, body)
	base = d.uvarint()
	if d.err == nil && base == 0 {
		d.fail("manifest base must be ≥ 1")
	}
	count := d.count(0)
	if d.err == nil && base+uint64(count) < base {
		d.fail("manifest window overflows")
	}
	for i := 0; i < count && d.err == nil; i++ {
		size := d.uvarint()
		if d.err == nil && size < minSegmentSize {
			d.fail("manifest row smaller than any legal segment")
			break
		}
		if d.err == nil && d.off+4 > len(d.data) {
			d.fail("truncated manifest row")
			break
		}
		if d.err != nil {
			break
		}
		crc := binary.LittleEndian.Uint32(d.data[d.off:])
		d.off += 4
		segs = append(segs, segMeta{size: size, crc: crc})
	}
	if d.err == nil && d.off != len(d.data) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return 0, nil, fmt.Errorf("genlog: manifest: %w", d.err)
	}
	return base, segs, nil
}
