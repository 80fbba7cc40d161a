package footstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"path/filepath"
	"sync"
	"testing"
)

// TestFormatPins pins the on-disk bytes of the store, segment and
// manifest formats: each encodes a fixed small input and must hash to
// the digest recorded when the format was frozen. A change here is a
// format change and needs a version bump, not a new digest.
func TestFormatPins(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"store", buildTestStore(t).Encode(), "3b60a1cb0cc340c0500ffc0f5e5c294a80c94908028b1f87660895ae9906e7dd"},
		{"segment", encodeSegment(7, []byte("opaque generation payload")), "a19315fdb1abeab57dcdb4acfe548bd3a237f93f95232ead4370d283c3319288"},
		{"manifest", encodeManifest(3, []segMeta{{size: 15, crc: 0xdeadbeef}, {size: 4096, crc: 42}}), "0f98061c4efe1753cc2bfc60e19fa7885ff1d8aa28114c3d035d44aa6f4e56ed"},
	}
	for _, tc := range cases {
		sum := sha256.Sum256(tc.data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s bytes changed: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSaveNeverTornForReaders is the offnetmap -store rebuild under a
// live offnetd: while Save rewrites the file over and over, a reader
// opening it in a loop must always find a whole store, old or new.
func TestSaveNeverTornForReaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "offnets.fst")
	stores := []*Store{buildTestStore(t), corruptTestStore(t)}
	if err := stores[0].Save(path); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	started := make(chan struct{})
	var opens, torn int
	var firstErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			_, err := Open(path)
			opens++
			if opens == 1 {
				close(started)
			}
			if err != nil {
				if errors.Is(err, ErrCorrupt) {
					torn++
				}
				if firstErr == nil {
					firstErr = err
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	<-started
	for i := 0; i < 200; i++ {
		if err := stores[i%2].Save(path); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if firstErr != nil {
		t.Fatalf("%d of %d opens during 200 saves found a torn store; first error: %v", torn, opens, firstErr)
	}
	t.Logf("%d opens during 200 saves, none torn", opens)
}
