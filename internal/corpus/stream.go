package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
)

// DefaultChunkSize is the record-batch size OpenStream yields, and
// StreamOf's when its chunk is unset. Large enough that the per-batch
// yield amortizes, small enough that a batch of fully decoded records
// stays in cache-friendly territory.
const DefaultChunkSize = 4096

// Stream is the chunked read path over one vendor-month: instead of
// materializing a Snapshot's record slices, each file is exposed as a
// consume function that decodes the NDJSON stream in place and yields
// fixed-size record batches. Memory stays bounded by the chunk size
// (plus the per-read intern tables), however large the month is; with
// LeafNames set the certificate read builds no leaf names it declines,
// and with HeaderIPs set a header read builds no list outside it.
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

	// ScannedAt, when set, is the instant ScanTime validates against (a
	// live scan's own moment). Zero means mid-month.
	ScannedAt time.Time

	// LeafNames, when set before Certs is called, asks that read for
	// the subject CN and dNSNames of the leaves whose organization it
	// accepts alone: OpenStream then still checks, counts and yields
	// every record in order, with every other field of every chain
	// element, but a leaf it declines comes with an empty CommonName and
	// nil DNSNames, those values walked and never built. It is asked
	// once per leaf, on the goroutine that runs Certs, at the leaf's
	// first subject_cn or dns_names key, about the organization decoded
	// so far ("" before any subject_org key); a line whose subject_org
	// key comes after names it declined is decoded again in full. So a
	// line's verdict, skip reason, error text and byte offset do not
	// depend on it. Nil asks for every leaf's names. StreamOf and
	// scanners.ScanStream ignore it: their chains are already built.
	LeafNames func(org string) bool

	// HeaderIPs, when set before HTTPS or HTTP is called, asks those
	// reads for the Headers of these IPs' records alone: OpenStream then
	// still checks, counts and yields every record in order, but one
	// whose IP is outside the set comes with nil Headers, its lists never
	// built. The reads probe the set and never change it, so they may
	// share it even when they run concurrently. Nil asks for every
	// record's Headers. StreamOf and scanners.ScanStream ignore it; their
	// batches are already built, so a consumer that keeps only some IPs
	// filters them itself.
	HeaderIPs *netmodel.Set[netmodel.IP]

	Certs func(yield func([]CertRecord) error) error
	HTTPS func(yield func([]HeaderRecord) error) error
	HTTP  func(yield func([]HeaderRecord) error) error
}

// ScanTime is the instant certificates are validated against:
// ScannedAt when set, otherwise mid-month, matching Snapshot.ScanTime.
func (st *Stream) ScanTime() time.Time {
	if !st.ScannedAt.IsZero() {
		return st.ScannedAt
	}
	return st.Snapshot.MidTime()
}

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

// OpenStream opens a persisted vendor-month for reading in batches of
// DefaultChunkSize records under the given ReadOptions: tolerant mode,
// the per-file error budget, and metrics. All three files are stat'd up
// front so a month the vendor doesn't cover fails here with
// fs.ErrNotExist rather than mid-consumption.
//
// The read's corpus.* metrics are recorded once, after all three
// consume functions have completed; a consumer that abandons a stream
// forfeits that read's accounting. Error precedence across files
// follows the fixed file order (certs, https, http).
func OpenStream(root string, vendor Vendor, s timeline.Snapshot, opts ReadOptions) (*Stream, error) {
	return openStream(root, vendor, s, opts, DefaultChunkSize)
}

// openStream is OpenStream yielding batches of chunk records, so tests
// can split a file at any record.
func openStream(root string, vendor Vendor, s timeline.Snapshot, opts ReadOptions, chunk int) (*Stream, error) {
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
	fin := &streamFinalizer{start: start, stats: stats, opts: opts, left: 3}
	st := &Stream{Vendor: vendor, Snapshot: s, Stats: stats}
	st.Certs = func(yield func([]CertRecord) error) error {
		return fin.done(0, readNDJSONFile(filepath.Join(dir, certFS.Name), opts, certFS, chunk, newCertDecoder(st.LeafNames), yield))
	}
	st.HTTPS = func(yield func([]HeaderRecord) error) error {
		return fin.done(1, readNDJSONFile(filepath.Join(dir, httpsFS.Name), opts, httpsFS, chunk, newHeaderDecoder(st.HeaderIPs), yield))
	}
	st.HTTP = func(yield func([]HeaderRecord) error) error {
		return fin.done(2, readNDJSONFile(filepath.Join(dir, httpFS.Name), opts, httpFS, chunk, newHeaderDecoder(st.HeaderIPs), yield))
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
