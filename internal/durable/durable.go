// Package durable owns the two decisions every persistent file in
// offnetscope shares: how a file is replaced so that a crash leaves
// either the old bytes or the new ones (WriteAtomic), and how a binary
// format frames its bytes so that damage is detected (Start, Seal,
// Open). The footstore and its generation log, the run checkpoints,
// the corpus writer and worldgen all go through it. It imports only
// the standard library.
//
// Frame layout, shared by every binary format in the tree:
//
//	magic      fixed bytes naming the format
//	version    uvarint
//	body       the format's own encoding
//	crc32      4 bytes, IEEE, little-endian, over every preceding byte
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// TempPrefix starts the name of every in-flight WriteAtomic temp file.
// A file with this prefix is never committed data, so a directory sweep
// may remove it.
const TempPrefix = ".tmp-"

// WriteAtomic replaces path with the bytes write produces. It writes a
// temp file named TempPrefix + the target's base name in the target's
// directory, fsyncs and closes it, makes it 0644, renames it over path
// and fsyncs the directory so the rename itself survives power loss.
// If any step before the rename fails, the temp file is removed, the
// old file is untouched, and the error is returned; the callback's
// own error comes back wrapped, so errors.Is still finds it. A failed
// directory fsync is returned too, but the new bytes are then already
// complete at path.
func WriteAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := sys.createTemp(dir, TempPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = sys.chmod(tmp, 0o644) // CreateTemp makes 0600
	}
	if err == nil {
		err = sys.rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck — best-effort cleanup, the write already failed
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return sys.syncDir(dir)
}

// WriteFile is WriteAtomic for bytes already in memory.
func WriteFile(path string, data []byte) error {
	return WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// SyncDir fsyncs a directory so the renames and unlinks inside it
// survive power loss.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// file is the part of *os.File that WriteAtomic uses.
type file interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// sys holds WriteAtomic's filesystem steps. Only the step-fault test
// replaces them.
var sys = struct {
	createTemp func(dir, pattern string) (file, error)
	chmod      func(name string, mode fs.FileMode) error
	rename     func(oldpath, newpath string) error
	syncDir    func(dir string) error
}{
	createTemp: func(dir, pattern string) (file, error) {
		f, err := os.CreateTemp(dir, pattern)
		if err != nil {
			return nil, err
		}
		return f, nil
	},
	chmod:   os.Chmod,
	rename:  os.Rename,
	syncDir: SyncDir,
}

const trailerSize = 4

// Start begins a frame: magic, then version as a uvarint. The caller
// appends its body and passes the result to Seal.
func Start(magic string, version uint64) []byte {
	return binary.AppendUvarint([]byte(magic), version)
}

// Seal appends the CRC-32 trailer over every byte of buf.
func Seal(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Open checks a sealed frame and returns its body, a subslice of data
// (nothing is copied). It checks the length and the magic, then the
// CRC, then the version. Short input, another magic, a CRC mismatch or
// an unreadable version is a *CorruptError; an intact frame of another
// version is a plain error that does not match ErrCorrupt.
func Open(data []byte, magic string, version uint64) ([]byte, error) {
	if len(data) < len(magic)+trailerSize || string(data[:len(magic)]) != magic {
		return nil, &CorruptError{Offset: 0, Reason: "bad magic, want " + magic}
	}
	end := len(data) - trailerSize
	if crc32.ChecksumIEEE(data[:end]) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, &CorruptError{Offset: end, Reason: "checksum mismatch (corrupt or truncated)"}
	}
	v, n := binary.Uvarint(data[len(magic):end])
	if n <= 0 {
		return nil, &CorruptError{Offset: len(magic), Reason: "truncated or overlong version"}
	}
	if v != version {
		return nil, fmt.Errorf("unsupported %s version %d (want %d)", magic, v, version)
	}
	return data[len(magic)+n : end], nil
}

// ErrCorrupt is the sentinel every corruption error matches via
// errors.Is: short input, bad magic, a checksum mismatch, or a
// structural violation inside bytes that cannot be the format. It
// deliberately excludes missing files (fs.ErrNotExist) and intact
// files of another version, so callers can budget corruption
// separately from configuration mistakes.
var ErrCorrupt = errors.New("corrupt data")

// CorruptError is the concrete corruption error: where decoding gave up
// and why. Offset is a byte offset into the file; Path is filled by the
// caller that knows the file, and is empty for in-memory decodes.
type CorruptError struct {
	Path   string
	Offset int
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("%s: %s (offset %d)", e.Path, e.Reason, e.Offset)
	}
	return fmt.Sprintf("%s (offset %d)", e.Reason, e.Offset)
}

// Is makes errors.Is(err, ErrCorrupt) match any CorruptError.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }
