package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

var errStep = errors.New("injected step fault")

// faultyFile is a real temp file whose Write, Sync or Close fails when
// step names it. Close always closes the real file.
type faultyFile struct {
	*os.File
	step string
}

func (f faultyFile) Write(p []byte) (int, error) {
	if f.step == "write" {
		return 0, errStep
	}
	return f.File.Write(p)
}

func (f faultyFile) Sync() error {
	if f.step == "fsync" {
		return errStep
	}
	return f.File.Sync()
}

func (f faultyFile) Close() error {
	err := f.File.Close()
	if f.step == "close" {
		return errStep
	}
	return err
}

// failStep makes WriteAtomic's step fail for the rest of the test and
// returns a pointer to the number of directory syncs attempted.
func failStep(t *testing.T, step string) *int {
	orig := sys
	t.Cleanup(func() { sys = orig })
	inject := func(s string) error {
		if s == step {
			return errStep
		}
		return nil
	}
	dirSyncs := new(int)
	sys.createTemp = func(dir, pattern string) (file, error) {
		if err := inject("create"); err != nil {
			return nil, err
		}
		f, err := os.CreateTemp(dir, pattern)
		if err != nil {
			return nil, err
		}
		return faultyFile{f, step}, nil
	}
	sys.chmod = func(name string, mode fs.FileMode) error {
		if err := inject("chmod"); err != nil {
			return err
		}
		return orig.chmod(name, mode)
	}
	sys.rename = func(oldpath, newpath string) error {
		if err := inject("rename"); err != nil {
			return err
		}
		return orig.rename(oldpath, newpath)
	}
	sys.syncDir = func(dir string) error {
		*dirSyncs++
		if err := inject("dir-fsync"); err != nil {
			return err
		}
		return orig.syncDir(dir)
	}
	return dirSyncs
}

// TestWriteAtomicStepFaults fails each step of WriteAtomic in turn. A
// failure before the rename must leave the old bytes exactly, no temp
// file and no directory sync; a failed directory sync must leave the
// new bytes complete; every failure is returned; a success syncs the
// directory exactly once and leaves a 0644 file.
func TestWriteAtomicStepFaults(t *testing.T) {
	oldBytes := []byte("the previous, good contents\n")
	newBytes := bytes.Repeat([]byte("replacement "), 1000)
	for _, step := range []string{"create", "write", "fsync", "close", "chmod", "rename", "dir-fsync", "none"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "store.fst")
			if err := os.WriteFile(path, oldBytes, 0o600); err != nil {
				t.Fatal(err)
			}
			dirSyncs := failStep(t, step)

			err := WriteAtomic(path, func(w io.Writer) error {
				_, err := w.Write(newBytes)
				return err
			})

			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			switch step {
			case "none":
				if err != nil {
					t.Fatalf("WriteAtomic: %v", err)
				}
				if !bytes.Equal(got, newBytes) {
					t.Fatal("new bytes incomplete after a successful write")
				}
				info, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if perm := info.Mode().Perm(); perm != 0o644 {
					t.Fatalf("mode %v, want 0644", perm)
				}
				if *dirSyncs != 1 {
					t.Fatalf("directory synced %d times, want 1", *dirSyncs)
				}
			case "dir-fsync":
				if !errors.Is(err, errStep) {
					t.Fatalf("err = %v, want the injected fault", err)
				}
				if !bytes.Equal(got, newBytes) {
					t.Fatal("new bytes incomplete after the rename")
				}
			default:
				if !errors.Is(err, errStep) {
					t.Fatalf("err = %v, want the injected fault", err)
				}
				if !bytes.Equal(got, oldBytes) {
					t.Fatalf("old file changed: %q", got)
				}
				if *dirSyncs != 0 {
					t.Fatalf("directory synced %d times without a rename", *dirSyncs)
				}
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 {
				t.Fatalf("directory holds %v, want only store.fst", ents)
			}
		})
	}
}

func TestFrameRoundTrip(t *testing.T) {
	body := []byte("canonical body bytes")
	data := Seal(append(Start("offnetXX", 3), body...))
	if string(data[:8]) != "offnetXX" || data[8] != 3 {
		t.Fatalf("header = %q", data[:9])
	}
	if got := binary.LittleEndian.Uint32(data[len(data)-4:]); got != crc32.ChecksumIEEE(data[:len(data)-4]) {
		t.Fatal("trailer is not the CRC-32 of the preceding bytes")
	}
	got, err := Open(data, "offnetXX", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body = %q", got)
	}
	if &got[0] != &data[9] {
		t.Fatal("Open copied the body")
	}
	empty, err := Open(Seal(Start("offnetXX", 3)), "offnetXX", 3)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty body = %q, %v", empty, err)
	}
}

// TestOpenChecksInOrder pins the classification and its order: length
// and magic, then the CRC, then the version. Only the last may fail
// without matching ErrCorrupt.
func TestOpenChecksInOrder(t *testing.T) {
	const magic = "offnetXX"
	good := Seal(append(Start(magic, 1), "body"...))
	flip := func(off int) []byte {
		out := append([]byte(nil), good...)
		out[off] ^= 0x01
		return out
	}
	v2 := Seal(append(Start(magic, 2), "body"...))
	v2BadCRC := append([]byte(nil), v2...)
	v2BadCRC[len(v2BadCRC)-1] ^= 0x01

	cases := []struct {
		name       string
		data       []byte
		corrupt    bool
		wantOffset int
	}{
		{"empty", nil, true, 0},
		{"shorter-than-header", good[:10], true, 0},
		{"bad-magic", flip(0), true, 0},
		{"bad-magic-and-crc", append(flip(0)[:len(good)-1], 0), true, 0},
		{"body-bit-flip", flip(10), true, len(good) - 4},
		{"crc-bit-flip", flip(len(good) - 1), true, len(good) - 4},
		{"truncated", good[:len(good)-1], true, len(good) - 5},
		{"no-version", Seal([]byte(magic)), true, len(magic)},
		{"other-version-bad-crc", v2BadCRC, true, len(v2) - 4},
		{"other-version", v2, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, err := Open(tc.data, magic, 1)
			if err == nil {
				t.Fatalf("Open accepted %q as %q", body, tc.data)
			}
			if got := errors.Is(err, ErrCorrupt); got != tc.corrupt {
				t.Fatalf("errors.Is(err, ErrCorrupt) = %v, want %v (err: %v)", got, tc.corrupt, err)
			}
			var ce *CorruptError
			if errors.As(err, &ce) != tc.corrupt {
				t.Fatalf("*CorruptError = %v, want %v (err: %v)", ce, tc.corrupt, err)
			}
			if tc.corrupt && (ce.Offset != tc.wantOffset || ce.Reason == "") {
				t.Fatalf("CorruptError = %+v, want offset %d and a reason", ce, tc.wantOffset)
			}
		})
	}
}

func TestCorruptErrorNamesPath(t *testing.T) {
	ce := &CorruptError{Offset: 12, Reason: "checksum mismatch"}
	if got := ce.Error(); got != "checksum mismatch (offset 12)" {
		t.Fatalf("Error() = %q", got)
	}
	ce.Path = "/data/offnets.fst"
	if got := ce.Error(); got != "/data/offnets.fst: checksum mismatch (offset 12)" {
		t.Fatalf("Error() = %q", got)
	}
}
