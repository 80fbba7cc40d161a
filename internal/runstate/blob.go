package runstate

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"offnetscope/internal/durable"
)

// Named blob checkpoints: small opaque payloads (the continuous-
// measurement daemon's mid-wave progress, for example) that need the
// same crash discipline as snapshot entries but none of the manifest
// machinery — the caller owns staleness via whatever it encodes into
// the payload. The wire format is a durable frame:
//
//	magic "offnetBL" | uvarint version | payload | CRC-32 (IEEE, LE)
//
// A blob is written with durable.WriteAtomic, so after SaveBlob returns
// it survives SIGKILL; a missing, truncated, or corrupt blob loads as
// nil — recompute, never trust.

const (
	blobMagic   = "offnetBL"
	blobVersion = 1
	blobSuffix  = ".blob"
)

// blobPath flattens the caller's name into one safe filename.
func blobPath(dir, name string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
	return filepath.Join(dir, safe+blobSuffix)
}

// SaveBlob atomically persists payload under name inside dir, creating
// the directory if needed.
func SaveBlob(dir, name string, payload []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("runstate: %w", err)
	}
	buf := append(durable.Start(blobMagic, blobVersion), payload...)
	if err := durable.WriteFile(blobPath(dir, name), durable.Seal(buf)); err != nil {
		return fmt.Errorf("runstate: %w", err)
	}
	return nil
}

// LoadBlob returns the payload saved under name, or nil when the blob
// is missing, truncated, or corrupt. A damaged blob is removed so the
// next save starts clean.
func LoadBlob(dir, name string) []byte {
	path := blobPath(dir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	payload, err := durable.Open(raw, blobMagic, blobVersion)
	if err != nil {
		os.Remove(path)
		return nil
	}
	return payload
}

// RemoveBlob deletes the blob saved under name; removing a blob that
// does not exist is not an error.
func RemoveBlob(dir, name string) error {
	err := os.Remove(blobPath(dir, name))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("runstate: %w", err)
	}
	return nil
}
