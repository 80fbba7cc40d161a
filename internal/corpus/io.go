package corpus

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
	"unicode"

	"offnetscope/internal/certmodel"
	"offnetscope/internal/durable"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/obs"
	"offnetscope/internal/timeline"
)

// On-disk layout mirrors how the public corpuses are distributed: one
// directory per vendor and month, NDJSON+gzip files inside.
//
//	<root>/<vendor>/<YYYY-MM>/certs.ndjson.gz
//	<root>/<vendor>/<YYYY-MM>/https_headers.ndjson.gz
//	<root>/<vendor>/<YYYY-MM>/http_headers.ndjson.gz

// wireCert is the serialized certificate form.
type wireCert struct {
	Serial     uint64   `json:"serial"`
	SubjectOrg string   `json:"subject_org,omitempty"`
	SubjectCN  string   `json:"subject_cn,omitempty"`
	IssuerOrg  string   `json:"issuer_org,omitempty"`
	IssuerCN   string   `json:"issuer_cn,omitempty"`
	DNSNames   []string `json:"dns_names,omitempty"`
	NotBefore  int64    `json:"not_before"`
	NotAfter   int64    `json:"not_after"`
	IsCA       bool     `json:"is_ca,omitempty"`
	Key        uint64   `json:"key"`
	SignedBy   uint64   `json:"signed_by"`
	Forged     bool     `json:"forged,omitempty"`
}

type wireCertRecord struct {
	IP    string     `json:"ip"`
	Chain []wireCert `json:"chain"`
}

type wireHeaderRecord struct {
	IP      string      `json:"ip"`
	Headers []hg.Header `json:"headers"`
}

func toWireCert(c *certmodel.Certificate) wireCert {
	return wireCert{
		Serial:     c.SerialNumber,
		SubjectOrg: c.Subject.Organization,
		SubjectCN:  c.Subject.CommonName,
		IssuerOrg:  c.Issuer.Organization,
		IssuerCN:   c.Issuer.CommonName,
		DNSNames:   c.DNSNames,
		NotBefore:  c.NotBefore.Unix(),
		NotAfter:   c.NotAfter.Unix(),
		IsCA:       c.IsCA,
		Key:        uint64(c.Key),
		SignedBy:   uint64(c.SignedBy),
		Forged:     c.Forged,
	}
}

// fromWireCert converts a decoded chain element, whose strings the
// decoder has already interned.
func fromWireCert(w *wireCert) *certmodel.Certificate {
	c := new(certmodel.Certificate)
	setFromWire(c, w)
	return c
}

func setFromWire(c *certmodel.Certificate, w *wireCert) {
	c.SerialNumber = w.Serial
	c.Subject = certmodel.Name{Organization: w.SubjectOrg, CommonName: w.SubjectCN}
	c.Issuer = certmodel.Name{Organization: w.IssuerOrg, CommonName: w.IssuerCN}
	c.DNSNames = w.DNSNames
	c.NotBefore = unixTime(w.NotBefore)
	c.NotAfter = unixTime(w.NotAfter)
	c.IsCA = w.IsCA
	c.Key = certmodel.KeyID(w.Key)
	c.SignedBy = certmodel.KeyID(w.SignedBy)
	c.Forged = w.Forged
}

// strTable interns the short strings that repeat across the records of
// one read — dNSNames, organization and common-name fields, header
// names and values — so a vendor-month whose millions of records share
// a few thousand distinct names retains one copy per distinct string
// instead of one per record. A table lives for exactly one file read:
// vocabularies repeat within a month, but a longer-lived table would
// pin a study's worth of dead strings. A nil table disables interning.
type strTable map[string]string

// intern returns b as a string, copying it only the first time the
// table sees it: the lookup itself does not allocate.
func (t strTable) intern(b []byte) string {
	if t == nil || len(b) == 0 {
		return string(b)
	}
	if v, ok := t[string(b)]; ok {
		return v
	}
	s := string(b)
	t[s] = s
	return s
}

func unixTime(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

// Dir returns the directory for one (vendor, snapshot) pair under root.
func Dir(root string, vendor Vendor, s timeline.Snapshot) string {
	return filepath.Join(root, string(vendor), s.Label())
}

// Write persists a snapshot under root.
func Write(root string, snap *Snapshot) error {
	dir := Dir(root, snap.Vendor, snap.Snapshot)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	if err := writeNDJSON(filepath.Join(dir, "certs.ndjson.gz"), len(snap.Certs), func(enc *json.Encoder, i int) error {
		r := snap.Certs[i]
		w := wireCertRecord{IP: r.IP.String()}
		for _, c := range r.Chain {
			w.Chain = append(w.Chain, toWireCert(c))
		}
		return enc.Encode(&w)
	}); err != nil {
		return err
	}
	if err := writeHeaderFile(filepath.Join(dir, "https_headers.ndjson.gz"), snap.HTTPS); err != nil {
		return err
	}
	return writeHeaderFile(filepath.Join(dir, "http_headers.ndjson.gz"), snap.HTTP)
}

func writeHeaderFile(path string, records []HeaderRecord) error {
	return writeNDJSON(path, len(records), func(enc *json.Encoder, i int) error {
		return enc.Encode(&wireHeaderRecord{IP: records[i].IP.String(), Headers: records[i].Headers})
	})
}

// writeNDJSON streams n records through encode into a gzip file that
// replaces path with durable.WriteAtomic: a killed run can never leave
// a truncated *.ndjson.gz behind to poison later reads, only a temp
// file that no reader opens. TestWriteNDJSONCrashSafe pins it.
func writeNDJSON(path string, n int, encode func(*json.Encoder, int) error) error {
	err := durable.WriteAtomic(path, func(w io.Writer) error {
		gz := gzip.NewWriter(w)
		bw := bufio.NewWriterSize(gz, 1<<16)
		enc := json.NewEncoder(bw)
		for i := 0; i < n; i++ {
			if err := encode(enc, i); err != nil {
				return fmt.Errorf("encoding: %w", err)
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return gz.Close()
	})
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	return nil
}

// ReadOptions selects between the strict and the degraded-mode read
// path.
type ReadOptions struct {
	// Tolerant skips malformed records instead of failing on the first
	// one, within the per-file error budget below. File-level damage — a
	// corrupt or truncated gzip stream — still fails the read: the
	// remainder of such a file is unknowable, so its budget cannot be
	// assessed.
	Tolerant bool
	// MaxBadFraction is the per-file error budget: the tolerant read
	// fails with ErrBudgetExceeded once skipped records exceed this
	// fraction of the records seen — strictly exceed, so a file exactly
	// at the budget still passes. The zero value (unset) means the 5%
	// default; any negative value — use the NoBudget sentinel — means
	// zero tolerance: a single skipped record fails the read.
	MaxBadFraction float64

	// Metrics, when set, receives read/skip accounting (corpus.* in
	// DESIGN.md §7): reads, read errors, records decoded, records
	// skipped by reason, and a read-latency histogram. Counter totals
	// are deterministic for a fixed corpus; only corpus.read_ns varies.
	Metrics *obs.Registry

	// ChunkSize bounds the record batches OpenStream yields; zero means
	// DefaultChunkSize. It is an execution knob like -jobs, not part of
	// the determinism contract: output is byte-identical at any setting.
	ChunkSize int
}

// NoBudget is the MaxBadFraction sentinel for zero tolerance: any
// skipped record fails the tolerant read. It exists because the zero
// value must keep meaning "unset, use the default" — an explicit 0
// would otherwise be indistinguishable and silently become 5%.
const NoBudget = -1.0

func (o ReadOptions) budget() float64 {
	switch {
	case o.MaxBadFraction < 0:
		return 0 // NoBudget: zero tolerance
	case o.MaxBadFraction == 0:
		return 0.05 // unset: the documented default
	default:
		return o.MaxBadFraction
	}
}

// ErrBudgetExceeded reports that a file blew through its tolerant-mode
// error budget; the whole snapshot read fails with it so callers can
// drop the vendor-month rather than trust a mostly-corrupt file.
var ErrBudgetExceeded = errors.New("corpus: per-file error budget exceeded")

// recordReadMetrics emits the corpus.* read accounting for one snapshot
// read attempt.
func recordReadMetrics(m *obs.Registry, start time.Time, stats *ReadStats, err error) {
	m.Histogram("corpus.read_ns").Since(start)
	m.Counter("corpus.reads").Inc()
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			m.Counter("corpus.read_missing").Inc() // months the vendor doesn't cover
		} else {
			m.Counter("corpus.read_errors").Inc()
		}
	}
	m.Counter("corpus.records").Add(int64(stats.TotalRecords()))
	m.Counter("corpus.records_skipped").Add(int64(stats.TotalSkipped()))
	for reason, n := range stats.ReasonTotals() {
		m.Counter("corpus.skip." + reason).Add(int64(n))
	}
}

// FileStats is the degraded-mode accounting for one NDJSON file.
type FileStats struct {
	Name    string         // base file name
	Records int            // records decoded OK
	Skipped int            // malformed records dropped (tolerant mode)
	Reasons map[string]int // skip reasons: "json", "ip", ...
}

func (fs *FileStats) skip(reason string) {
	fs.Skipped++
	if fs.Reasons == nil {
		fs.Reasons = make(map[string]int)
	}
	fs.Reasons[reason]++
}

// String renders one file's accounting, e.g.
// "certs.ndjson.gz: 4988 ok, 12 skipped (json=10 ip=2)".
func (fs *FileStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d ok, %d skipped", fs.Name, fs.Records, fs.Skipped)
	if len(fs.Reasons) > 0 {
		reasons := make([]string, 0, len(fs.Reasons))
		for r := range fs.Reasons {
			reasons = append(reasons, r)
		}
		// Deterministic order without importing sort for two keys.
		for i := 1; i < len(reasons); i++ {
			for j := i; j > 0 && reasons[j] < reasons[j-1]; j-- {
				reasons[j], reasons[j-1] = reasons[j-1], reasons[j]
			}
		}
		b.WriteString(" (")
		for i, r := range reasons {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%d", r, fs.Reasons[r])
		}
		b.WriteByte(')')
	}
	return b.String()
}

// ReadStats aggregates per-file accounting across one snapshot read.
type ReadStats struct {
	Files []*FileStats
}

func (st *ReadStats) file(name string) *FileStats {
	fs := &FileStats{Name: name}
	st.Files = append(st.Files, fs)
	return fs
}

// TotalRecords sums records decoded OK across all files.
func (st *ReadStats) TotalRecords() int {
	n := 0
	for _, fs := range st.Files {
		n += fs.Records
	}
	return n
}

// TotalSkipped sums dropped records across all files.
func (st *ReadStats) TotalSkipped() int {
	n := 0
	for _, fs := range st.Files {
		n += fs.Skipped
	}
	return n
}

// ReasonTotals folds the per-file skip reasons into snapshot-wide
// totals, so the funnel report can name the corruption classes instead
// of burying them per file.
func (st *ReadStats) ReasonTotals() map[string]int {
	out := make(map[string]int)
	for _, fs := range st.Files {
		for reason, n := range fs.Reasons {
			out[reason] += n
		}
	}
	return out
}

// recordError tags a per-record decode failure with its accounting
// reason and, when known, the byte offset within the record where it
// was found.
type recordError struct {
	reason string
	off    int // -1 when unknown
	err    error
}

func (e *recordError) Error() string { return e.reason + ": " + e.err.Error() }
func (e *recordError) Unwrap() error { return e.err }

func badRecord(reason string, err error) error { return badRecordAt(reason, -1, err) }

func badRecordAt(reason string, off int, err error) error {
	return &recordError{reason: reason, off: off, err: err}
}

func reasonOf(err error) string {
	var re *recordError
	if errors.As(err, &re) {
		return re.reason
	}
	return "decode"
}

// errorAt names where a decode failure was found: the line number and,
// when the error carries an offset into the record — the line with its
// surrounding white space trimmed — the byte offset within the line.
func errorAt(lineNo int, line []byte, err error) string {
	var re *recordError
	if !errors.As(err, &re) || re.off < 0 {
		return fmt.Sprintf("line %d", lineNo)
	}
	lead := len(line) - len(bytes.TrimLeftFunc(line, unicode.IsSpace))
	return fmt.Sprintf("line %d byte %d", lineNo, lead+re.off)
}

// Read loads a snapshot previously persisted with Write, strictly: the
// first malformed record fails the read. Shared intermediate
// certificates are deduplicated by fingerprint so the in-memory size
// matches freshly scanned snapshots.
func Read(root string, vendor Vendor, s timeline.Snapshot) (*Snapshot, error) {
	snap, _, err := ReadWithStats(root, vendor, s, ReadOptions{})
	return snap, err
}

// ReadWithStats loads a snapshot under the given options by collecting
// an OpenStream read in memory. In tolerant mode, malformed records are
// skipped and counted per file; the read fails only when a file exceeds
// its error budget or is damaged at the gzip level. The returned stats
// are valid (for inspection) even when err is non-nil: every file is
// read to its end whatever the others did, so the stats and the
// corpus.* metrics are complete, and the error follows the fixed file
// order (certs, https, http).
func ReadWithStats(root string, vendor Vendor, s timeline.Snapshot, opts ReadOptions) (*Snapshot, *ReadStats, error) {
	st, err := OpenStream(root, vendor, s, opts)
	if err != nil {
		return nil, &ReadStats{}, err
	}
	snap := &Snapshot{Vendor: vendor, Snapshot: s}
	for _, err := range []error{
		st.Certs(appendTo(&snap.Certs)),
		st.HTTPS(appendTo(&snap.HTTPS)),
		st.HTTP(appendTo(&snap.HTTP)),
	} {
		if err != nil {
			return nil, st.Stats, err
		}
	}
	return snap, st.Stats, nil
}

// appendTo is a yield func that copies every batch onto *dst.
func appendTo[T any](dst *[]T) func([]T) error {
	return func(batch []T) error {
		*dst = append(*dst, batch...)
		return nil
	}
}

// newCertDecoder returns the certs.ndjson.gz line decoder for one file
// read. Repeated intermediates/roots intern by fingerprint and repeated
// strings via a strTable, both spanning that one read.
func newCertDecoder() func([]byte) (CertRecord, error) {
	interned := make(map[certmodel.Fingerprint]*certmodel.Certificate)
	d := &wireDecoder{strs: make(strTable)}
	return func(line []byte) (CertRecord, error) {
		w, err := d.decodeCert(line)
		if err != nil {
			return CertRecord{}, err
		}
		ip, err := netmodel.ParseIP(w.IP)
		if err != nil {
			return CertRecord{}, badRecord("ip", err)
		}
		rec := CertRecord{IP: ip, Chain: make(certmodel.Chain, 0, len(w.Chain))}
		for i := range w.Chain {
			if i == 0 {
				rec.Chain = append(rec.Chain, fromWireCert(&w.Chain[i]))
				continue
			}
			// Intermediates and roots repeat heavily: look them up
			// before allocating.
			var probe certmodel.Certificate
			setFromWire(&probe, &w.Chain[i])
			c, ok := interned[probe.Fingerprint()]
			if !ok {
				c = fromWireCert(&w.Chain[i])
				interned[probe.Fingerprint()] = c
			}
			rec.Chain = append(rec.Chain, c)
		}
		return rec, nil
	}
}

// newHeaderDecoder returns the header-file line decoder for one file
// read, interning repeated header names and values.
func newHeaderDecoder() func([]byte) (HeaderRecord, error) {
	d := &wireDecoder{strs: make(strTable)}
	return func(line []byte) (HeaderRecord, error) {
		w, err := d.decodeHeader(line)
		if err != nil {
			return HeaderRecord{}, err
		}
		ip, err := netmodel.ParseIP(w.IP)
		if err != nil {
			return HeaderRecord{}, badRecord("ip", err)
		}
		return HeaderRecord{IP: ip, Headers: slices.Clone(w.Headers)}, nil
	}
}

// readNDJSONFile opens one NDJSON+gzip corpus file and drives it
// through readChunks.
func readNDJSONFile[T any](path string, opts ReadOptions, fs *FileStats, chunk int, decode func([]byte) (T, error), yield func([]T) error) (err error) {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	// Close errors must not vanish: a failing file Close can mask a
	// partial read on networked filesystems. Keep the first error.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("corpus: closing %s: %w", path, cerr)
		}
	}()
	gz, err := gzip.NewReader(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	defer func() {
		if cerr := gz.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("corpus: closing %s: %w", path, cerr)
		}
	}()
	return readChunks(gz, path, opts, fs, chunk, decode, yield)
}

// readChunks is the one record driver behind every corpus read: it
// walks a record-per-line stream, decodes each line, and yields the
// records in order in batches of chunk — the last one possibly shorter
// — through a single reused batch buffer. Strict mode fails on the
// first malformed record; tolerant mode skips and counts it, failing
// only past the error budget. Stream-level read errors (flate
// corruption, truncation, a failed gzip checksum) always fail: the
// undecodable remainder makes the budget unassessable. An error from
// yield aborts the read and is returned verbatim: a consumer abort is
// not record damage and never counts against the budget.
//
// The budget is enforced incrementally once enough lines have been seen
// to judge the fraction, and finally at EOF — so a hopelessly corrupt
// file aborts early instead of burning through gigabytes.
func readChunks[T any](r io.Reader, name string, opts ReadOptions, fs *FileStats, chunk int, decode func([]byte) (T, error), yield func([]T) error) error {
	const minSampleForEarlyAbort = 512
	budget := opts.budget()
	overBudget := func() bool {
		total := fs.Records + fs.Skipped
		return float64(fs.Skipped) > budget*float64(total)
	}
	var batch []T
	var long []byte // a line longer than br's buffer, reassembled
	br := bufio.NewReaderSize(r, 1<<16)
	for lineNo := 1; ; lineNo++ {
		// ReadSlice hands out br's own buffer, valid until the next read:
		// the decoders copy what a record keeps.
		line, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for rerr == bufio.ErrBufferFull {
				line, rerr = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if rerr != nil && rerr != io.EOF {
			// Stream-level damage (flate corruption, a truncated or
			// checksum-failing gzip trailer). Any bytes in hand are the
			// undecodable tail of a broken stream: decoding them would
			// misfile the damage as a per-record skip — and with a tight
			// budget, report ErrBudgetExceeded instead of the truncation.
			return fmt.Errorf("corpus: reading %s: %w", name, rerr)
		}
		if rec := bytes.TrimSpace(line); len(rec) > 0 {
			v, derr := decode(rec)
			if derr != nil {
				if !opts.Tolerant {
					return fmt.Errorf("corpus: decoding %s %s: %w", name, errorAt(lineNo, line, derr), derr)
				}
				fs.skip(reasonOf(derr))
				// A zero budget needs no sample to judge the fraction:
				// any skip already exceeds it, so abort on the first.
				if (budget == 0 || fs.Records+fs.Skipped >= minSampleForEarlyAbort) && overBudget() {
					return fmt.Errorf("%w: %s after %d lines (%s)", ErrBudgetExceeded, name, lineNo, fs)
				}
			} else {
				fs.Records++
				if batch = append(batch, v); len(batch) == chunk {
					if err := yield(batch); err != nil {
						return err
					}
					batch = batch[:0]
				}
			}
		}
		if rerr == io.EOF {
			if opts.Tolerant && fs.Skipped > 0 && overBudget() {
				return fmt.Errorf("%w: %s (%s)", ErrBudgetExceeded, name, fs)
			}
			if len(batch) > 0 {
				return yield(batch)
			}
			return nil
		}
	}
}
