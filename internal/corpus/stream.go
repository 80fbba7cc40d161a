package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"offnetscope/internal/timeline"
)

// DefaultChunkSize is the record-batch size the streaming read path
// yields when ReadOptions.ChunkSize is unset. Large enough that the
// per-batch yield amortizes, small enough that a batch of fully decoded
// records stays in cache-friendly territory.
const DefaultChunkSize = 4096

// Stream is the chunked read path over one vendor-month: instead of
// materializing a Snapshot's record slices, each file is exposed as a
// consume function that decodes the NDJSON stream in place and yields
// fixed-size record batches. Memory stays bounded by the chunk size
// (plus the per-read intern tables), however large the month is.
//
// Contract, shared by every producer (OpenStream, StreamOf,
// scanners.ScanStream):
//
//   - Batches arrive in record order — chunk N+1's records follow chunk
//     N's exactly as they sit in the file. A consumer that folds batches
//     in arrival order reproduces the single-batch result byte for byte
//     at any chunk size.
//   - The batch slice is only valid during the yield call: producers
//     reuse it. Consumers copy what they retain — the records' contents
//     (chain pointers, header slices) are freshly decoded and safe to
//     keep; the []CertRecord / []HeaderRecord slice itself is not.
//   - A non-nil error from yield aborts the stream and is returned
//     verbatim from the consume function, never recorded as decode
//     damage or counted against the error budget.
//   - Each consume function may be called at most once.
type Stream struct {
	Vendor   Vendor
	Snapshot timeline.Snapshot

	// Stats carries the per-file read accounting. The counts fill in as
	// the consume functions run and are complete once all three have
	// returned. Nil for producers that decode nothing.
	Stats *ReadStats

	// SizeHint is the record count of each file (certs, https, http)
	// when the producer knows it up front, zero otherwise. Consumers may
	// pre-size their containers from it; it never changes what a stream
	// yields.
	SizeHint [3]int

	Certs func(yield func([]CertRecord) error) error
	HTTPS func(yield func([]HeaderRecord) error) error
	HTTP  func(yield func([]HeaderRecord) error) error
}

// ScanTime is the instant certificates are validated against —
// mid-month, matching Snapshot.ScanTime.
func (st *Stream) ScanTime() time.Time { return st.Snapshot.MidTime() }

// StreamOf adapts an in-memory snapshot to the streaming interface,
// yielding zero-copy subslice batches of chunk records each
// (DefaultChunkSize when chunk <= 0). It is how scanner-generated
// corpuses and in-memory callers drive the streaming pipeline without
// a disk round-trip; it records no stats and emits no metrics. A nil
// snapshot — a month the source has no data for — gives a nil stream.
func StreamOf(snap *Snapshot, chunk int) *Stream {
	if snap == nil {
		return nil
	}
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	return &Stream{
		Vendor:   snap.Vendor,
		Snapshot: snap.Snapshot,
		SizeHint: [3]int{len(snap.Certs), len(snap.HTTPS), len(snap.HTTP)},
		Certs:    func(yield func([]CertRecord) error) error { return yieldChunks(snap.Certs, chunk, yield) },
		HTTPS:    func(yield func([]HeaderRecord) error) error { return yieldChunks(snap.HTTPS, chunk, yield) },
		HTTP:     func(yield func([]HeaderRecord) error) error { return yieldChunks(snap.HTTP, chunk, yield) },
	}
}

func yieldChunks[T any](recs []T, chunk int, yield func([]T) error) error {
	for lo := 0; lo < len(recs); lo += chunk {
		hi := min(lo+chunk, len(recs))
		if err := yield(recs[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// OpenStream opens a persisted vendor-month for chunked reading under
// the given ReadOptions: tolerant mode, the per-file error budget, and
// metrics. All three files are stat'd up front so a month the vendor
// doesn't cover fails here with fs.ErrNotExist rather than
// mid-consumption.
//
// The read's corpus.* metrics are recorded once, after all three
// consume functions have completed; a consumer that abandons a stream
// forfeits that read's accounting. Error precedence across files
// follows the fixed file order (certs, https, http).
func OpenStream(root string, vendor Vendor, s timeline.Snapshot, opts ReadOptions) (*Stream, error) {
	start := time.Now()
	dir := Dir(root, vendor, s)
	stats := &ReadStats{}
	certFS := stats.file("certs.ndjson.gz")
	httpsFS := stats.file("https_headers.ndjson.gz")
	httpFS := stats.file("http_headers.ndjson.gz")
	for _, fs := range stats.Files {
		if _, err := os.Stat(filepath.Join(dir, fs.Name)); err != nil {
			err = fmt.Errorf("corpus: %w", err)
			recordReadMetrics(opts.Metrics, start, stats, err)
			return nil, err
		}
	}
	chunk := opts.ChunkSize
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	fin := &streamFinalizer{start: start, stats: stats, opts: opts, left: 3}
	st := &Stream{Vendor: vendor, Snapshot: s, Stats: stats}
	st.Certs = func(yield func([]CertRecord) error) error {
		return fin.done(0, readNDJSONFile(filepath.Join(dir, certFS.Name), opts, certFS, chunk, newCertDecoder(), yield))
	}
	st.HTTPS = func(yield func([]HeaderRecord) error) error {
		return fin.done(1, readNDJSONFile(filepath.Join(dir, httpsFS.Name), opts, httpsFS, chunk, newHeaderDecoder(), yield))
	}
	st.HTTP = func(yield func([]HeaderRecord) error) error {
		return fin.done(2, readNDJSONFile(filepath.Join(dir, httpFS.Name), opts, httpFS, chunk, newHeaderDecoder(), yield))
	}
	return st, nil
}

// streamFinalizer fires the one-shot read accounting when the last of
// the three file consumers finishes, whatever order (or goroutines)
// they ran on. Error precedence is by file index, not completion order.
type streamFinalizer struct {
	start time.Time
	stats *ReadStats
	opts  ReadOptions

	mu   sync.Mutex
	left int
	errs [3]error
}

// done records file i's outcome and returns err unchanged.
func (f *streamFinalizer) done(i int, err error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.errs[i] = err
	if f.left--; f.left > 0 {
		return err
	}
	first := error(nil)
	for _, e := range f.errs {
		if e != nil {
			first = e
			break
		}
	}
	recordReadMetrics(f.opts.Metrics, f.start, f.stats, first)
	return err
}
