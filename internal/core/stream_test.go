package core

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"offnetscope/internal/corpus"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
)

// TestInferSnapshotStreamMatchesInferSnapshot pins chunked inference to
// a single-batch stream, which is exactly the unchunked computation —
// validate every record, then match: the complete SnapshotInference —
// every Result field, the HTTP-only set, and the Netflix memory lookups
// — must be deeply equal at any chunk size, including a chunk of one
// record per batch, the HTTP-only set by membership.
func TestInferSnapshotStreamMatchesInferSnapshot(t *testing.T) {
	snap := rapid7At(t, lastSnap)
	p := testPipeline(DefaultOptions())
	want, err := p.InferSnapshotStream(corpus.StreamOf(snap, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 0} {
		got, err := p.InferSnapshotStream(corpus.StreamOf(snap, chunk))
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if !reflect.DeepEqual(got.Result, want.Result) {
			t.Errorf("chunk=%d: Result diverges from the single-batch inference", chunk)
		}
		if !sameHTTPOnly(got.HTTPOnlyIPs, want.HTTPOnlyIPs, snap) {
			t.Errorf("chunk=%d: HTTPOnlyIPs diverge", chunk)
		}
		if !reflect.DeepEqual(got.NetflixLookups, want.NetflixLookups) {
			t.Errorf("chunk=%d: NetflixLookups diverge", chunk)
		}
	}
	if res := p.Run(snap); !reflect.DeepEqual(res, want.Result) {
		t.Error("Run diverges from the single-batch inference")
	}
}

// TestInferSnapshotStreamReadsCertsFirst pins the read order: a header
// file is read only once the certificate read has returned, because
// the header index keeps only the IPs the certificates named. The
// certificate read first waits for a header read to begin, so an
// engine that reads the files concurrently fails every time.
func TestInferSnapshotStreamReadsCertsFirst(t *testing.T) {
	st := corpus.StreamOf(rapid7At(t, lastSnap), 0)
	var certsDone atomic.Bool
	headerEntered := make(chan struct{}, 2) // one send per header read
	certs := st.Certs
	st.Certs = func(yield func([]corpus.CertRecord) error) error {
		select {
		case <-headerEntered:
		case <-time.After(100 * time.Millisecond):
		}
		defer certsDone.Store(true)
		return certs(yield)
	}
	for _, read := range []*func(func([]corpus.HeaderRecord) error) error{&st.HTTPS, &st.HTTP} {
		headers := *read
		*read = func(yield func([]corpus.HeaderRecord) error) error {
			if !certsDone.Load() {
				t.Error("a header read began before the certificate read returned")
			}
			headerEntered <- struct{}{}
			return headers(yield)
		}
	}
	if _, err := testPipeline(DefaultOptions()).InferSnapshotStream(st); err != nil {
		t.Fatal(err)
	}
}

// TestInferSnapshotStreamError pins stream-failure semantics: an error
// from any record stream aborts the inference and surfaces with the
// fixed certs-https-http precedence, and every read still runs to its
// last batch, so the stream's read accounting finalizes.
func TestInferSnapshotStreamError(t *testing.T) {
	snap := rapid7At(t, lastSnap)
	p := testPipeline(DefaultOptions())
	certErr := errors.New("certs damaged")
	httpErr := errors.New("http damaged")

	// counted wraps a header read to count the records it yields and to
	// fail with err once it has yielded them all.
	counted := func(read func(func([]corpus.HeaderRecord) error) error, n *int, err error) func(func([]corpus.HeaderRecord) error) error {
		return func(yield func([]corpus.HeaderRecord) error) error {
			if e := read(func(b []corpus.HeaderRecord) error { *n += len(b); return yield(b) }); e != nil {
				return e
			}
			return err
		}
	}
	st := corpus.StreamOf(snap, 0)
	var httpsN, httpN int
	st.Certs = func(func([]corpus.CertRecord) error) error { return certErr }
	st.HTTPS = counted(st.HTTPS, &httpsN, nil)
	st.HTTP = counted(st.HTTP, &httpN, httpErr)
	if _, err := p.InferSnapshotStream(st); err != certErr {
		t.Fatalf("got %v, want the certs error (file-order precedence)", err)
	}
	if httpsN != len(snap.HTTPS) || httpN != len(snap.HTTP) {
		t.Fatalf("after a failed certificate read, the header reads yielded %d and %d records, want %d and %d",
			httpsN, httpN, len(snap.HTTPS), len(snap.HTTP))
	}

	st = corpus.StreamOf(snap, 0)
	st.HTTP = func(func([]corpus.HeaderRecord) error) error { return httpErr }
	if _, err := p.InferSnapshotStream(st); err != httpErr {
		t.Fatalf("got %v, want the http error", err)
	}

	if _, err := p.InferSnapshotStream(corpus.StreamOf(snap, 0)); err != nil {
		t.Fatalf("clean stream must not error: %v", err)
	}
}

// TestHTTPOnlyIPs pins the §6.2 non-TLS test set to its definition: the
// IPs of the month's HTTP records minus those of its certificate
// records, at the last snapshot and at 2018-04, inside the Netflix era
// whose off-nets answered on port 80 alone.
func TestHTTPOnlyIPs(t *testing.T) {
	p := testPipeline(DefaultOptions())
	for _, s := range []timeline.Snapshot{lastSnap, 18} {
		snap := rapid7At(t, s)
		want := make(map[netmodel.IP]struct{})
		for _, r := range snap.HTTP {
			want[r.IP] = struct{}{}
		}
		for _, r := range snap.Certs {
			delete(want, r.IP)
		}
		if len(want) == 0 {
			t.Fatalf("%v: no HTTP-only IPs in the test world", s)
		}
		inf, err := p.InferSnapshotStream(corpus.StreamOf(snap, 0))
		if err != nil {
			t.Fatal(err)
		}
		if got := inf.HTTPOnlyIPs.Len(); got != len(want) {
			t.Errorf("%v: %d HTTP-only IPs, want %d", s, got, len(want))
		}
		for ip := range want {
			if !inf.HTTPOnlyIPs.Has(ip) {
				t.Errorf("%v: HTTP-only IP %v missing", s, ip)
				break
			}
		}
	}
}

// sameHTTPOnly reports whether two HTTP-only sets drawn from snap hold
// the same IPs: the same count, and agreement on every HTTP IP of the
// month. Sets are compared by membership, since each set's seeded hash
// lays out the same keys differently.
func sameHTTPOnly(a, b *netmodel.Set[netmodel.IP], snap *corpus.Snapshot) bool {
	if a.Len() != b.Len() {
		return false
	}
	for _, r := range snap.HTTP {
		if a.Has(r.IP) != b.Has(r.IP) {
			return false
		}
	}
	return true
}
