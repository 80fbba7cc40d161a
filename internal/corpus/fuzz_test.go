package corpus

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"

	"offnetscope/internal/netmodel"
)

// gzipped compresses raw NDJSON for seeding the fuzzer.
func gzipped(t testing.TB, raw string) []byte {
	t.Helper()
	var buf bytes.Buffer
	gw := gzip.NewWriter(&buf)
	if _, err := gw.Write([]byte(raw)); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeChunked runs an in-memory certs.ndjson.gz stream through the
// chunk driver every corpus read uses and materializes the yielded
// batches.
func decodeChunked(input []byte, opts ReadOptions, chunk int) ([]CertRecord, *FileStats, error) {
	return readChunked(input, opts, chunk, newCertDecoder(nil))
}

// readChunked runs an in-memory NDJSON+gzip stream through readChunks
// with the line decoder decode and materializes the yielded batches.
func readChunked[T any](input []byte, opts ReadOptions, chunk int, decode func([]byte) (T, error)) ([]T, *FileStats, error) {
	gz, err := gzip.NewReader(bytes.NewReader(input))
	if err != nil {
		return nil, nil, err
	}
	defer gz.Close()
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	var out []T
	fs := &FileStats{Name: "fuzz"}
	err = readChunks(gz, "fuzz", opts, fs, chunk, decode, appendTo(&out))
	return out, fs, err
}

// errString is an error's text, or "" for none.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameCertRecords compares decoded cert records by IP and per-link
// fingerprint — structural equality without tripping over the lazily
// memoized fingerprint cache inside Certificate.
func sameCertRecords(a, b []CertRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IP != b[i].IP || len(a[i].Chain) != len(b[i].Chain) {
			return false
		}
		for j := range a[i].Chain {
			if a[i].Chain[j].Fingerprint() != b[i].Chain[j].Fingerprint() {
				return false
			}
		}
	}
	return true
}

func sameFileStats(a, b *FileStats) bool {
	if a.Records != b.Records || a.Skipped != b.Skipped || len(a.Reasons) != len(b.Reasons) {
		return false
	}
	for r, n := range a.Reasons {
		if b.Reasons[r] != n {
			return false
		}
	}
	return true
}

// FuzzCorpusRead throws arbitrary bytes at the NDJSON+gzip decode path
// (mirroring FuzzFootstoreDecode): corrupt input must produce an error
// or a clean skip — never a panic — in both strict and tolerant mode,
// and tolerant accounting must stay consistent with what was decoded.
// Every input additionally runs at chunk sizes 1, 7, and the default,
// which must reproduce the single-batch records, stats, and error
// exactly — the determinism contract that makes the chunk size an
// execution knob rather than a semantic one. At those chunk sizes each
// input is also read as a certificate file with a names predicate,
// which walks the names of leaves whose organization it declines: it
// must give the single-batch full read's stats and error, and its
// records but for the CN and dNSNames of leaves whose organization it
// declines, which may be left empty. And each is read as
// a header file, with every list built and with an empty want set,
// which walks the lists of every record whose IP comes first: both must
// give the single-batch full read's stats, error and record IPs.
func FuzzCorpusRead(f *testing.F) {
	valid := gzipped(f,
		`{"ip":"1.2.3.4","chain":[{"serial":1,"subject_org":"Google LLC","key":1,"signed_by":2}]}`+"\n"+
			`{"ip":"5.6.7.8","chain":[]}`+"\n")
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(gzipped(f, "not json at all\n{\"ip\":\"bad\"}\n"))
	f.Add(gzipped(f, ""))
	f.Add([]byte("not gzip"))
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b}) // bare gzip magic
	// Corruption landing exactly on a chunk boundary: with chunk size 7,
	// line 7 closes the first batch and line 8 opens the next — both are
	// malformed, so the skip accounting straddles the batch flush.
	boundary := make([]string, 0, 9)
	for i := 0; i < 6; i++ {
		boundary = append(boundary, `{"ip":"1.2.3.4","chain":[]}`)
	}
	boundary = append(boundary, "corrupt at batch close", "{corrupt at batch open", `{"ip":"5.6.7.8","chain":[]}`)
	f.Add(gzipped(f, strings.Join(boundary, "\n")+"\n"))
	// Header files: a type error inside a list, the IP after the list.
	f.Add(gzipped(f, `{"ip":"1.2.3.4","headers":[{"Name":"Server","Value":"gws"}]}`+"\n"+
		`{"ip":"1.2.3.5","headers":[{"Name":"Server","Value":5}]}`+"\n"+
		`{"ip":"1.2.3.6","headers":[null,{"Name":"Via"},1]}`+"\n"))
	// Certificate files: names before their organization, a declined
	// leaf with a type error in its names, an accepted leaf.
	f.Add(gzipped(f, `{"ip":"1.2.3.4","chain":[{"dns_names":["a"],"subject_org":"Google LLC"}]}`+"\n"+
		`{"ip":"1.2.3.5","chain":[{"subject_org":"Acme","dns_names":["a",5]}]}`+"\n"+
		`{"ip":"1.2.3.6","chain":[{"subject_org":"Google LLC","subject_cn":"g","dns_names":["g"]}]}`+"\n"))
	f.Add(gzipped(f, `{"headers":[{"Name":"Server","Value":"gws"}],"ip":"1.2.3.4"}`+"\n"+
		`{"ip":"1.2.3.5","headers":[{"Name":"a"}],"ip":"1.2.3.6"}`+"\n"+
		`{"ip":"1.2.3.7","headers":[{"Name":"a"}],"ip":5}`+"\n"))

	f.Fuzz(func(t *testing.T, input []byte) {
		for _, opts := range []ReadOptions{
			{},
			{Tolerant: true},
			{Tolerant: true, MaxBadFraction: 1},
		} {
			// One batch holding the whole file is the reference.
			want, fs, err := decodeChunked(input, opts, 1<<30)
			if fs == nil {
				continue // not a gzip stream at all
			}
			// A failed read drops its unflushed batch, so only a clean
			// read must deliver every record it counted.
			if err == nil && fs.Records != len(want) {
				t.Fatalf("accounting drift: %d records counted, %d decoded", fs.Records, len(want))
			}
			if !opts.Tolerant && fs.Skipped != 0 {
				t.Fatalf("strict mode skipped %d records", fs.Skipped)
			}
			if err == nil && opts.Tolerant {
				total := fs.Records + fs.Skipped
				if total > 0 && float64(fs.Skipped) > opts.budget()*float64(total) {
					t.Fatalf("accepted a file over budget: %s", fs)
				}
			}

			for _, chunk := range []int{1, 7, 0} {
				recs, cfs, cerr := decodeChunked(input, opts, chunk)
				if (cerr == nil) != (err == nil) || (cerr != nil && cerr.Error() != err.Error()) {
					t.Fatalf("chunk=%d error diverged: %v vs %v", chunk, cerr, err)
				}
				if !sameFileStats(fs, cfs) {
					t.Fatalf("chunk=%d stats diverged: %s vs %s", chunk, cfs, fs)
				}
				if err == nil && !sameCertRecords(want, recs) {
					t.Fatalf("chunk=%d decoded %d records, single batch %d", chunk, len(recs), len(want))
				}
			}

			google := func(org string) bool { return strings.Contains(org, "Google") }
			for _, chunk := range []int{1, 7, 0} {
				recs, cfs, cerr := readChunked(input, opts, chunk, newCertDecoder(google))
				if errString(cerr) != errString(err) {
					t.Fatalf("names predicate, chunk=%d: error %v, single full batch %v", chunk, cerr, err)
				}
				if !sameFileStats(fs, cfs) {
					t.Fatalf("names predicate, chunk=%d: stats %s, single full batch %s", chunk, cfs, fs)
				}
				if err != nil {
					continue
				}
				if len(recs) != len(want) {
					t.Fatalf("names predicate, chunk=%d: %d records, single full batch %d", chunk, len(recs), len(want))
				}
				for i := range recs {
					// A leaf whose final organization the predicate accepts
					// has its names built.
					if same, walked := sameButLeafNames(recs[i], want[i]); !same || walked && google(want[i].Chain[0].Subject.Organization) {
						t.Fatalf("names predicate, chunk=%d: record %d is %v, single full batch %v", chunk, i, certWire(recs[i]), certWire(want[i]))
					}
				}
			}

			wantH, hfs, herr := readChunked(input, opts, 1<<30, newHeaderDecoder(nil))
			for _, chunk := range []int{1, 7, 0} {
				for _, set := range []*netmodel.Set[netmodel.IP]{nil, {}} {
					recs, cfs, cerr := readChunked(input, opts, chunk, newHeaderDecoder(set))
					if errString(cerr) != errString(herr) {
						t.Fatalf("headers, chunk=%d, empty set %v: error %v, single full batch %v", chunk, set != nil, cerr, herr)
					}
					if !sameFileStats(hfs, cfs) {
						t.Fatalf("headers, chunk=%d, empty set %v: stats %s, single full batch %s", chunk, set != nil, cfs, hfs)
					}
					if herr != nil {
						continue
					}
					if len(recs) != len(wantH) {
						t.Fatalf("headers, chunk=%d, empty set %v: %d records, single full batch %d", chunk, set != nil, len(recs), len(wantH))
					}
					for i := range recs {
						if recs[i].IP != wantH[i].IP || set != nil && recs[i].Headers != nil {
							t.Fatalf("headers, chunk=%d, empty set %v: record %d is %v, single full batch %v", chunk, set != nil, i, recs[i], wantH[i])
						}
					}
				}
			}
		}
	})
}
