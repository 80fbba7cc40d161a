package corpus

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"offnetscope/internal/obs"
)

// drainStream consumes all three files of a stream, materializing the
// batches (copying them, per the reuse contract) and returning the
// per-file errors in fixed file order.
func drainStream(st *Stream) (certs []CertRecord, https, http []HeaderRecord, errs [3]error) {
	errs[0] = st.Certs(func(batch []CertRecord) error {
		certs = append(certs, batch...)
		return nil
	})
	errs[1] = st.HTTPS(func(batch []HeaderRecord) error {
		https = append(https, batch...)
		return nil
	})
	errs[2] = st.HTTP(func(batch []HeaderRecord) error {
		http = append(http, batch...)
		return nil
	})
	return
}

// OpenStream must reproduce the snapshot handed to Write exactly —
// records in order, per-file stats, and corpus.* counters — at any
// chunk size, including sizes that split records mid-file and a chunk
// larger than the file; ReadWithStats, which collects the same stream,
// must agree.
func TestOpenStreamMatchesRead(t *testing.T) {
	snap := sampleSnapshot(t)
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	wantCounts := []int{len(snap.Certs), len(snap.HTTPS), len(snap.HTTP)}
	sameHeaders := func(a, b []HeaderRecord) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].IP != b[i].IP || !reflect.DeepEqual(a[i].Headers, b[i].Headers) {
				return false
			}
		}
		return true
	}

	for _, chunk := range []int{1, 7, 0, 1 << 20} {
		reg := obs.NewRegistry("got")
		st, err := OpenStream(root, Rapid7, snap.Snapshot, ReadOptions{Metrics: reg, ChunkSize: chunk})
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if st.SizeHint != [3]int{} {
			t.Fatalf("chunk=%d: OpenStream claims record counts %v before reading", chunk, st.SizeHint)
		}
		certs, https, http, errs := drainStream(st)
		for i, e := range errs {
			if e != nil {
				t.Fatalf("chunk=%d file %d: %v", chunk, i, e)
			}
		}
		if !sameCertRecords(snap.Certs, certs) {
			t.Fatalf("chunk=%d: cert records diverged (%d vs %d)", chunk, len(certs), len(snap.Certs))
		}
		if !sameHeaders(snap.HTTPS, https) || !sameHeaders(snap.HTTP, http) {
			t.Fatalf("chunk=%d: header records diverged", chunk)
		}
		for i, fs := range st.Stats.Files {
			if fs.Records != wantCounts[i] || fs.Skipped != 0 {
				t.Fatalf("chunk=%d: stats %s, want %d ok, 0 skipped", chunk, fs, wantCounts[i])
			}
		}
		got := reg.Snapshot()
		if got.Counter("corpus.reads") != 1 || got.Counter("corpus.records") != int64(len(certs)+len(https)+len(http)) ||
			got.Counter("corpus.records_skipped") != 0 || got.Counter("corpus.read_errors") != 0 {
			t.Fatalf("chunk=%d: read accounting %v", chunk, got.Counters)
		}

		back, stats, err := ReadWithStats(root, Rapid7, snap.Snapshot, ReadOptions{ChunkSize: chunk})
		if err != nil {
			t.Fatalf("chunk=%d: ReadWithStats: %v", chunk, err)
		}
		if !sameCertRecords(snap.Certs, back.Certs) || !sameHeaders(snap.HTTPS, back.HTTPS) || !sameHeaders(snap.HTTP, back.HTTP) {
			t.Fatalf("chunk=%d: ReadWithStats diverged from the written snapshot", chunk)
		}
		for i, fs := range stats.Files {
			if !sameFileStats(fs, st.Stats.Files[i]) {
				t.Fatalf("chunk=%d: ReadWithStats stats %s, stream %s", chunk, fs, st.Stats.Files[i])
			}
		}
	}
}

// ReadWithStats collects all three files whatever fails: the first
// error in file order wins, the stats cover every file, and the read
// books one corpus.read_errors. A missing month still fails with
// fs.ErrNotExist and books corpus.read_missing.
func TestReadWithStatsFailureAccounting(t *testing.T) {
	snap := sampleSnapshot(t)
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	// Damage the later two files differently: a truncated https stream
	// (its error names the file) and an http file that is not gzip.
	dir := Dir(root, Rapid7, snap.Snapshot)
	httpsPath := filepath.Join(dir, "https_headers.ndjson.gz")
	data, err := os.ReadFile(httpsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(httpsPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "http_headers.ndjson.gz"), []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("got")
	back, stats, err := ReadWithStats(root, Rapid7, snap.Snapshot, ReadOptions{Tolerant: true, Metrics: reg})
	if err == nil || back != nil {
		t.Fatalf("damaged month read back: err=%v", err)
	}
	if !strings.Contains(err.Error(), "https_headers") {
		t.Fatalf("err = %v, want the https file's error (file-order precedence)", err)
	}
	if stats == nil || len(stats.Files) != 3 || stats.Files[0].Records != len(snap.Certs) {
		t.Fatalf("stats after failure: %+v", stats)
	}
	s := reg.Snapshot()
	if s.Counter("corpus.reads") != 1 || s.Counter("corpus.read_errors") != 1 || s.Counter("corpus.records") != int64(len(snap.Certs)) {
		t.Fatalf("failure accounting: %v", s.Counters)
	}

	reg = obs.NewRegistry("missing")
	_, stats, err = ReadWithStats(t.TempDir(), Rapid7, 3, ReadOptions{Metrics: reg})
	if !errors.Is(err, fs.ErrNotExist) || stats == nil {
		t.Fatalf("missing month: err = %v, stats = %v", err, stats)
	}
	if s := reg.Snapshot(); s.Counter("corpus.reads") != 1 || s.Counter("corpus.read_missing") != 1 {
		t.Fatalf("missing-month accounting: %v", s.Counters)
	}
}

// A month the vendor doesn't cover fails OpenStream up front with
// fs.ErrNotExist and books corpus.read_missing, not a read error.
func TestOpenStreamMissingMonth(t *testing.T) {
	reg := obs.NewRegistry("got")
	_, err := OpenStream(t.TempDir(), Rapid7, 3, ReadOptions{Metrics: reg})
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
	s := reg.Snapshot()
	if s.Counter("corpus.reads") != 1 || s.Counter("corpus.read_missing") != 1 {
		t.Fatalf("missing-month accounting: %v", s.Counters)
	}

	// One file missing out of three counts the same way: the month is
	// incomplete, so it is not covered.
	snap := sampleSnapshot(t)
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(Dir(root, Rapid7, snap.Snapshot), "https_headers.ndjson.gz")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStream(root, Rapid7, snap.Snapshot, ReadOptions{}); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("partial month: err = %v, want fs.ErrNotExist", err)
	}
}

// A consumer abort must surface verbatim from the consume function —
// not dressed up as a decode error, not counted against the budget —
// and the records yielded before the abort stay delivered.
func TestOpenStreamConsumerAbort(t *testing.T) {
	snap := sampleSnapshot(t)
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(root, Rapid7, snap.Snapshot, ReadOptions{Tolerant: true, MaxBadFraction: NoBudget, ChunkSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	batches := 0
	err = st.Certs(func([]CertRecord) error {
		if batches++; batches == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want the consumer's own error", err)
	}
	if batches != 2 {
		t.Fatalf("consumed %d batches after abort, want 2", batches)
	}
	fs := st.Stats.Files[0]
	if fs.Skipped != 0 {
		t.Fatalf("consumer abort was booked as %d skips", fs.Skipped)
	}
}

// The chunk driver enforces the -max-bad budget at exactly the same
// skip count at every chunk size, even though the per-file record count
// is unknown up front: the boundary cases from
// TestTolerantBudgetBoundary must behave identically at chunk sizes
// that straddle the failing record and in a single batch.
func TestStreamBudgetBoundaryParity(t *testing.T) {
	input := func(total, bad int) string {
		var raw strings.Builder
		for i := 0; i < total; i++ {
			if i < bad {
				raw.WriteString("bad json\n")
			} else {
				raw.WriteString(`{"ip":"1.2.3.4","chain":[]}` + "\n")
			}
		}
		return raw.String()
	}
	for _, tc := range []struct {
		name     string
		opts     ReadOptions
		total    int
		bad      int
		overflow bool
	}{
		{"exactly at explicit budget", ReadOptions{Tolerant: true, MaxBadFraction: 0.05}, 100, 5, false},
		{"one record over explicit budget", ReadOptions{Tolerant: true, MaxBadFraction: 0.05}, 100, 6, true},
		{"unset budget means 5% default", ReadOptions{Tolerant: true}, 100, 5, false},
		{"unset budget still enforces the default", ReadOptions{Tolerant: true}, 100, 6, true},
		{"NoBudget passes a clean file", ReadOptions{Tolerant: true, MaxBadFraction: NoBudget}, 100, 0, false},
		{"NoBudget rejects a single skip", ReadOptions{Tolerant: true, MaxBadFraction: NoBudget}, 100, 1, true},
		{"any negative value is zero tolerance", ReadOptions{Tolerant: true, MaxBadFraction: -0.5}, 100, 1, true},
		{"strict mode fails on the first bad record", ReadOptions{}, 100, 1, true},
	} {
		raw := gzipped(t, input(tc.total, tc.bad))
		_, wantFS, wantErr := decodeChunked(raw, tc.opts, 1<<20) // effectively unchunked
		for _, chunk := range []int{1, 3, 7, 0} {
			recs, fs, err := decodeChunked(raw, tc.opts, chunk)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Errorf("%s chunk=%d: err = %v, want %v", tc.name, chunk, err, wantErr)
			}
			if tc.overflow && err == nil {
				t.Errorf("%s chunk=%d: read accepted", tc.name, chunk)
			}
			if !tc.overflow {
				if err != nil {
					t.Errorf("%s chunk=%d: err = %v, want nil", tc.name, chunk, err)
				}
				if len(recs) != tc.total-tc.bad {
					t.Errorf("%s chunk=%d: %d records, want %d", tc.name, chunk, len(recs), tc.total-tc.bad)
				}
			}
			if !sameFileStats(fs, wantFS) {
				t.Errorf("%s chunk=%d: stats %s, want %s", tc.name, chunk, fs, wantFS)
			}
		}
	}
}

// Corruption landing exactly on a chunk boundary — the last record of
// one batch and the first of the next both malformed — must account
// identically at every chunk size.
func TestStreamChunkBoundaryCorruption(t *testing.T) {
	lines := make([]string, 0, 16)
	for i := 0; i < 6; i++ {
		lines = append(lines, `{"ip":"1.2.3.4","chain":[]}`)
	}
	lines = append(lines, "bad at batch close", "{bad at batch open")
	for i := 0; i < 6; i++ {
		lines = append(lines, `{"ip":"5.6.7.8","chain":[]}`)
	}
	raw := gzipped(t, strings.Join(lines, "\n")+"\n")
	opts := ReadOptions{Tolerant: true, MaxBadFraction: 0.5}
	want, wantFS, err := decodeChunked(raw, opts, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if wantFS.Skipped != 2 || len(want) != 12 {
		t.Fatalf("fixture drifted: %s", wantFS)
	}
	for _, chunk := range []int{1, 7, 0} { // 7 puts the first bad line at a batch close
		recs, fs, err := decodeChunked(raw, opts, chunk)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if !sameCertRecords(want, recs) || !sameFileStats(fs, wantFS) {
			t.Fatalf("chunk=%d diverged: %s vs %s", chunk, fs, wantFS)
		}
	}
}

// A gzip stream whose trailer is truncated — the CRC can never be
// verified — must fail the read in both strict and tolerant mode,
// through ReadWithStats and a raw stream alike, and must never be
// misfiled as a per-record skip or an ErrBudgetExceeded.
func TestTruncatedGzipTrailer(t *testing.T) {
	snap := sampleSnapshot(t)
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(Dir(root, Rapid7, snap.Snapshot), "certs.ndjson.gz")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The gzip trailer is the final 8 bytes (CRC32 + ISIZE); cutting
	// into it leaves every record intact but the checksum unprovable.
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	for _, opts := range []ReadOptions{
		{},
		{Tolerant: true},
		{Tolerant: true, MaxBadFraction: NoBudget},
	} {
		_, _, err := ReadWithStats(root, Rapid7, snap.Snapshot, opts)
		if err == nil {
			t.Fatalf("ReadWithStats (tolerant=%v) accepted a truncated trailer", opts.Tolerant)
		}
		if errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("ReadWithStats misfiled truncation as budget: %v", err)
		}

		st, oerr := OpenStream(root, Rapid7, snap.Snapshot, opts)
		if oerr != nil {
			t.Fatal(oerr)
		}
		_, _, _, errs := drainStream(st)
		if errs[0] == nil {
			t.Fatalf("stream read (tolerant=%v) accepted a truncated trailer", opts.Tolerant)
		}
		if errors.Is(errs[0], ErrBudgetExceeded) {
			t.Fatalf("stream read misfiled truncation as budget: %v", errs[0])
		}
		if st.Stats.Files[0].Skipped != 0 {
			t.Fatalf("truncation was booked as %d record skips", st.Stats.Files[0].Skipped)
		}
	}
}

// StreamOf reproduces the snapshot it wraps, in order, at any chunk
// size, and carries its record counts as the size hint — it is the
// zero-copy bridge that lets scanner output drive the streaming
// pipeline. A nil snapshot is a nil stream.
func TestStreamOfRoundTrip(t *testing.T) {
	snap := sampleSnapshot(t)
	for _, chunk := range []int{1, 7, 0, 1 << 20} {
		st := StreamOf(snap, chunk)
		if st.ScanTime() != snap.ScanTime() {
			t.Fatalf("chunk=%d: ScanTime diverged", chunk)
		}
		if want := [3]int{len(snap.Certs), len(snap.HTTPS), len(snap.HTTP)}; st.SizeHint != want {
			t.Fatalf("chunk=%d: SizeHint %v, want %v", chunk, st.SizeHint, want)
		}
		certs, https, http, errs := drainStream(st)
		for i, e := range errs {
			if e != nil {
				t.Fatalf("chunk=%d file %d: %v", chunk, i, e)
			}
		}
		if !sameCertRecords(snap.Certs, certs) || len(https) != len(snap.HTTPS) || len(http) != len(snap.HTTP) {
			t.Fatalf("chunk=%d: round trip diverged", chunk)
		}
	}
	if StreamOf(nil, 0) != nil {
		t.Fatal("StreamOf(nil) is not nil")
	}
}

// A producer that knows when it scanned (a live probe wave) validates
// at that moment; every other producer keeps mid-month.
func TestStreamScannedAt(t *testing.T) {
	st := StreamOf(sampleSnapshot(t), 0)
	if st.ScanTime() != st.Snapshot.MidTime() {
		t.Fatalf("zero ScannedAt: ScanTime = %v, want mid-month", st.ScanTime())
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	st.ScannedAt = at
	if !st.ScanTime().Equal(at) {
		t.Fatalf("ScanTime = %v, want %v", st.ScanTime(), at)
	}
}
